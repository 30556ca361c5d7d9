//go:build unix

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// resultFile is the one JSON document a run writes.
type resultFile struct {
	Schema      int                        `json:"schema"`
	Environment environment                `json:"environment"`
	Workloads   map[string]*workloadResult `json:"workloads"`
	Correct     bool                       `json:"correct"`
	Attempted   int                        `json:"attempted"`
	Failed      int                        `json:"failed"`
}

// environment records what a number depends on besides the code.
type environment struct {
	GitRevision string  `json:"git_revision"`
	Seed        int64   `json:"seed"`
	Quick       bool    `json:"quick"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Kernel      string  `json:"kernel"`
	Filesystem  string  `json:"tmp_filesystem"`
	Companies   int     `json:"companies"`
	Days        int     `json:"days"`
	Seconds     float64 `json:"run_seconds"`
	Repetitions int     `json:"repetitions"`
	Connections int     `json:"connections"`
	// The traced repetition's extra phases, relative to an open loop of
	// run_seconds / repetitions.
	ClosedShare    float64 `json:"closed_share"`
	KNNShare       float64 `json:"knn_share"`
	KNNNominalRate float64 `json:"knn_nominal_rate_per_s"`
	TracedRestarts int     `json:"restarts_per_traced_rep"`
	SettleAppends  int     `json:"settle_appends"`
	TailBeyond     int     `json:"tail_samples_beyond"`
}

// workloadResult is one workload's section.
type workloadResult struct {
	Why string `json:"why"`
	// The fixed traffic parameters of the workload.
	EpsFrac         float64 `json:"eps_frac"`
	QueryRate       float64 `json:"query_rate_per_s"`
	AppendRate      float64 `json:"append_rate_per_s,omitempty"`
	ClosedClients   int     `json:"closed_clients"`
	WindowRequests  int     `json:"latency_window_requests"`
	TailPercentile  float64 `json:"query_tail_percentile"`
	AppendTailPctl  float64 `json:"append_tail_percentile,omitempty"`
	OpenSeconds     float64 `json:"open_seconds_per_rep"`
	ClosedSeconds   float64 `json:"closed_seconds_traced_rep"`
	KNNQueries      int     `json:"knn_queries_traced_rep"`
	TracePassRepeat int     `json:"trace_repeats"`

	// EndToEnd: median, min and max over the repetitions, with each
	// repetition's raw value and sample count.
	EndToEnd map[string]*metricValue `json:"end_to_end,omitempty"`
	// PerLayer: the traced run's values.
	PerLayer map[string]*metricValue `json:"per_layer,omitempty"`
	// Validity: open-loop self-checks and the trace reconciliations.
	Validity map[string]float64 `json:"validity,omitempty"`
	// Trace is the path of the span file the traced run wrote.
	Trace string `json:"trace_file,omitempty"`
}

type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Raw     []float64 `json:"raw"`
	Samples []int     `json:"samples,omitempty"`
}

// bestOfReps names the metrics whose run value is the best repetition's
// instead of the median: the open-loop latency readings, for the reason
// windowLatencies gives.  Both are lower-is-better.
var bestOfReps = map[string]bool{"query_p50_ms": true, "query_tail_ratio": true}

// combine folds repetitions into value/min/max for the named metrics:
// the value is the median, or the minimum for bestOfReps.
func combine(defs []metricDef, reps []*repResult) map[string]*metricValue {
	out := map[string]*metricValue{}
	for _, def := range defs {
		mv := &metricValue{Unit: def.Unit}
		for _, rep := range reps {
			mv.Raw = append(mv.Raw, rep.Metrics[def.Name])
			if n, ok := rep.Samples[def.Name]; ok {
				mv.Samples = append(mv.Samples, n)
			}
		}
		if len(mv.Raw) == 0 {
			continue
		}
		mv.Value = median(mv.Raw)
		mv.Min, mv.Max = mv.Raw[0], mv.Raw[0]
		for _, v := range mv.Raw {
			mv.Min = min(mv.Min, v)
			mv.Max = max(mv.Max, v)
		}
		if bestOfReps[def.Name] {
			mv.Value = mv.Min
		}
		out[def.Name] = mv
	}
	return out
}

func newEnvironment(cfg *config) environment {
	return environment{
		GitRevision:    gitRevision(cfg.root),
		Seed:           cfg.seed,
		Quick:          cfg.quick,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Kernel:         kernelRelease(),
		Filesystem:     filesystemType(cfg.tmp),
		Companies:      cfg.companies,
		Days:           cfg.days,
		Seconds:        cfg.seconds,
		Repetitions:    cfg.reps,
		Connections:    cfg.conns,
		ClosedShare:    closedShare,
		KNNShare:       knnShare,
		KNNNominalRate: knnNominalRate,
		TracedRestarts: restartsPerTracedRep,
		SettleAppends:  settleAppends,
		TailBeyond:     tailBeyond,
	}
}

func gitRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// filesystemType names the filesystem holding dir, from /proc/mounts:
// fsync cost is part of the append metrics.
func filesystemType(dir string) string {
	var st syscall.Stat_t
	if err := syscall.Stat(dir, &st); err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		var mst syscall.Stat_t
		if err := syscall.Stat(f[1], &mst); err != nil || mst.Dev != st.Dev {
			continue
		}
		if len(f[1]) >= len(best) {
			best, fstype = f[1], f[2]
		}
	}
	return fstype
}

// printMetrics writes one line per metric: name, value, unit, and for
// repeated metrics the range and sample counts.
func printMetrics(w io.Writer, workload string, defs []metricDef, values map[string]*metricValue) {
	for _, def := range defs {
		mv, ok := values[def.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-16s %-30s %14.4f %-6s", workload, def.Name, mv.Value, mv.Unit)
		if len(mv.Raw) > 1 {
			line += fmt.Sprintf(" min %.4f max %.4f", mv.Min, mv.Max)
		}
		if len(mv.Samples) > 0 {
			line += fmt.Sprintf(" samples %v", mv.Samples)
		}
		fmt.Fprintln(w, line)
	}
}

func printValidity(w io.Writer, workload string, v map[string]float64) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-16s validity %-30s %.4f\n", workload, k, v[k])
	}
}

func writeJSONFile(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
