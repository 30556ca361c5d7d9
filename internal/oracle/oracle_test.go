package oracle

import (
	"context"
	"math"
	"strings"
	"testing"

	"scaleshift/internal/core"
)

// FuzzOracle explores seeds and schedules: every Case Generate draws
// must answer as the scan does after every step.
func FuzzOracle(f *testing.F) {
	for seed := range int64(12) {
		f.Add(seed, []byte(nil))
	}
	every := make([]byte, numOps)
	for i := range every {
		every[i] = byte(i)
	}
	f.Add(int64(3), every)
	f.Add(int64(4), []byte{byte(AppendAndIndex), byte(Checkpoint), byte(AppendValues), byte(AppendValues), byte(Crash), byte(CompactReopen), byte(IndexStore), byte(Crash)})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		Check(t, Generate(seed, ops...))
	})
}

// TestCheckCatchesWrongAnswers runs Check's comparison against systems
// that are wrong in one way each: a system that is not the scan must
// not pass.
func TestCheckCatchesWrongAnswers(t *testing.T) {
	c := Generate(5, byte(AppendValues), byte(Compact))
	c.Shards = 1
	faults := map[string]func(*core.Result){
		"row dropped": func(r *core.Result) { r.Matches = r.Matches[:len(r.Matches)-1] },
		"total off":   func(r *core.Result) { r.Total++ },
		"dist bit":    func(r *core.Result) { r.Matches[0].Dist = math.Nextafter(r.Matches[0].Dist, math.Inf(1)) },
		"shift bit":   func(r *core.Result) { r.Matches[0].Shift = math.Nextafter(r.Matches[0].Shift, math.Inf(1)) },
		"rows swapped": func(r *core.Result) {
			if len(r.Matches) > 1 {
				r.Matches[0], r.Matches[1] = r.Matches[1], r.Matches[0]
			}
		},
	}
	for name, fault := range faults {
		c.Systems = []System{{Name: "faulty", Answer: func(ix *core.Index, qs []core.Query) ([]core.Result, error) {
			out, _, err := ix.ExecBatch(context.Background(), qs, 1, nil)
			for i := range out {
				if len(out[i].Matches) > 1 {
					fault(&out[i])
				}
			}
			return out, err
		}}}
		if err := run(c, t.TempDir()); err == nil || !strings.Contains(err.Error(), "faulty") {
			t.Errorf("%s: Check reported %v", name, err)
		}
	}
}
