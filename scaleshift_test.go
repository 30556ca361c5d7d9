package scaleshift_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"scaleshift"
	"scaleshift/internal/oracle"
)

// TestPublicAPIEndToEnd drives the whole public surface: build a store,
// index it, search with cost bounds, use k-NN and long queries, and
// round-trip through serialization.
func TestPublicAPIEndToEnd(t *testing.T) {
	st := scaleshift.NewStore()
	wave := make([]float64, 120)
	for i := range wave {
		wave[i] = 10 + 3*math.Sin(float64(i)/5)
	}
	st.AppendSequence("wave", wave)
	flat := make([]float64, 120)
	for i := range flat {
		flat[i] = 25
	}
	st.AppendSequence("flat", flat)

	opts := scaleshift.DefaultOptions()
	opts.WindowLen = 32
	ix, err := scaleshift.NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}

	// A scaled/shifted copy of a window of "wave" must be found there
	// and (with a scale floor) not on "flat".
	q := make([]float64, 32)
	for i := range q {
		q[i] = 5*wave[40+i] - 12
	}
	costs := scaleshift.UnboundedCosts()
	costs.ScaleMin = 0.01
	var stats scaleshift.SearchStats
	res, err := ix.Exec(context.Background(), scaleshift.Query{Vec: q, Eps: 1e-6, Costs: &costs}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	matches := res.Matches
	foundWave := false
	for _, m := range matches {
		if m.Name == "flat" {
			t.Fatalf("flat sequence matched with scale %v", m.Scale)
		}
		if m.Name == "wave" && m.Start == 40 {
			foundWave = true
			if math.Abs(m.Scale-0.2) > 1e-9 || math.Abs(m.Shift-12.0/5) > 1e-6 {
				t.Errorf("recovered a=%v b=%v", m.Scale, m.Shift)
			}
		}
	}
	if !foundWave {
		t.Fatal("source window not found through the public API")
	}
	if stats.PageAccesses() == 0 {
		t.Error("no page accesses recorded")
	}

	// Nearest neighbours.
	res, err = ix.Exec(context.Background(), scaleshift.Query{Vec: q, K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nn := res.Matches; len(nn) != 3 || nn[0].Dist > 1e-6 {
		t.Errorf("nn = %+v", nn)
	}

	// Long query (2 pieces).
	lq := make([]float64, 64)
	for i := range lq {
		lq[i] = wave[20+i]
	}
	long, err := ix.Exec(context.Background(), scaleshift.Query{Vec: lq, Eps: 1e-6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(long.Matches) == 0 {
		t.Error("long query found nothing")
	}

	// Serialization round trip through the public constructors.
	var stBuf, ixBuf bytes.Buffer
	if err := st.WriteBinary(&stBuf); err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteBinary(&ixBuf); err != nil {
		t.Fatal(err)
	}
	st2, err := scaleshift.ReadStoreBinary(&stBuf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index")
	if err := os.WriteFile(path, ixBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ix2, err := scaleshift.LoadIndexFile(path, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	again, err := ix2.Exec(context.Background(), scaleshift.Query{Vec: q, Eps: 1e-6, Costs: &costs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Matches) != len(matches) {
		t.Errorf("reloaded index returned %d matches, want %d", len(again.Matches), len(matches))
	}
}

// TestPublicAPIVariants exercises the option knobs exposed publicly:
// the Haar reduction, the CSV loader, the default page shape.
func TestPublicAPIVariants(t *testing.T) {
	st := scaleshift.NewStore()
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64((i*i)%97) + 1
	}
	st.AppendSequence("s", vals)
	data := oracle.FromStore(st)

	for _, tc := range []struct {
		name   string
		mutate func(*scaleshift.Options)
	}{
		{"haar", func(o *scaleshift.Options) { o.Reduction = scaleshift.ReductionHaar }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := scaleshift.DefaultOptions()
			opts.WindowLen = 32
			tc.mutate(&opts)
			oracle.Check(t, oracle.Case{Opts: opts, Data: data, Queries: oracle.Mix(data, 32, 1)})
		})
	}

	// CSV loader.
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := scaleshift.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TotalValues() != st.TotalValues() {
		t.Error("CSV round trip lost values")
	}
	if scaleshift.PageSize != 4096 {
		t.Errorf("PageSize = %d", scaleshift.PageSize)
	}
	if scaleshift.DefaultTreeConfig(6).MaxEntries != 20 {
		t.Error("DefaultTreeConfig wrong")
	}
}

func TestPublicVectorHelpers(t *testing.T) {
	// The paper's Figure 1 example through the public helpers.
	a := []float64{5, 10, 6, 12, 4}
	b := []float64{10, 20, 12, 24, 8}
	dist, scale, shift := scaleshift.MinDist(a, b)
	if dist > 1e-9 || scale != 2 || shift != 0 {
		t.Errorf("MinDist(A, B) = %v, %v, %v", dist, scale, shift)
	}
	if !scaleshift.Similar(a, b, 0.001) {
		t.Error("A ~ B not detected")
	}
	c := scaleshift.ApplyTransform(a, 1, 20)
	if c[0] != 25 || c[4] != 24 {
		t.Errorf("ApplyTransform = %v", c)
	}
	if scaleshift.Similar(a, []float64{1, 0, 1, 0, 9}, 0.001) {
		t.Error("dissimilar pair reported similar")
	}
}
