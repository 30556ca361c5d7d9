package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// smallArgs keeps CLI tests quick: tiny market, short window.
func smallArgs(extra ...string) []string {
	base := []string{"-companies", "20", "-days", "200", "-window", "32"}
	return append(base, extra...)
}

func TestQueryFindsDisguisedWindow(t *testing.T) {
	var sb strings.Builder
	err := run(smallArgs("-query", "3:50", "-scale", "2", "-shift", "-5", "-eps-frac", "0.001"), &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "HK0004") {
		t.Errorf("source window not reported:\n%s", out)
	}
	if !strings.Contains(out, "a=0.5") {
		t.Errorf("inverse transform not recovered:\n%s", out)
	}
}

func TestQueryFromCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 10
	cfg.Days = 100
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var sb strings.Builder
	err = run([]string{"-data", path, "-window", "32", "-query", "0:10", "-eps", "0.5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "database: 10 sequences") {
		t.Errorf("CSV database not loaded:\n%s", sb.String())
	}
}

func TestQueryModes(t *testing.T) {
	// Nearest-neighbour mode.
	var sb strings.Builder
	if err := run(smallArgs("-query", "2:20", "-nn", "3"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3 matches") {
		t.Errorf("nn mode:\n%s", sb.String())
	}
	// Spheres strategy.
	sb.Reset()
	if err := run(smallArgs("-query", "2:20", "-spheres", "-eps-frac", "0.01"), &sb); err != nil {
		t.Fatal(err)
	}
	// Long query (multipiece).
	sb.Reset()
	if err := run(smallArgs("-query", "2:20", "-long", "-eps-frac", "0.001"), &sb); err != nil {
		t.Fatal(err)
	}
	// Long mode doubles the query span: window [20, 20+64).
	if !strings.Contains(sb.String(), "[20:84)") {
		t.Errorf("long mode:\n%s", sb.String())
	}
	// Explicit values.
	sb.Reset()
	vals := make([]string, 32)
	for i := range vals {
		vals[i] = "1"
	}
	if err := run(smallArgs("-query-values", strings.Join(vals, ",")), &sb); err != nil {
		t.Fatal(err)
	}
	// Cost bounds.
	sb.Reset()
	if err := run(smallArgs("-query", "2:20", "-eps-frac", "0.05",
		"-scale-min", "0.5", "-scale-max", "2", "-shift-abs", "10"), &sb); err != nil {
		t.Fatal(err)
	}
}

func TestQueryErrors(t *testing.T) {
	tests := [][]string{
		smallArgs(),                                         // no query
		smallArgs("-query", "banana"),                       // malformed spec
		smallArgs("-query", "999:0"),                        // out of range
		smallArgs("-query-values", "1,two,3"),               // bad float
		smallArgs("-query", "x:1"),                          // bad seq
		smallArgs("-query", "1:y"),                          // bad start
		{"-data", "/nonexistent/file.csv", "-query", "0:0"}, // missing file
	}
	for _, args := range tests {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestIndexCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "idx.bin")
	// First run builds and caches.
	var sb strings.Builder
	if err := run(smallArgs("-query", "3:50", "-eps-frac", "0.001", "-index-cache", cache), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cached to") {
		t.Errorf("first run did not cache:\n%s", sb.String())
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatal(err)
	}
	// Second run loads, producing identical matches.
	var sb2 strings.Builder
	if err := run(smallArgs("-query", "3:50", "-eps-frac", "0.001", "-index-cache", cache), &sb2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "mapped from") {
		t.Errorf("second run did not map the cache:\n%s", sb2.String())
	}
	tail := func(s string) string { return s[strings.Index(s, "matches"):] }
	if tail(sb.String()) != tail(sb2.String()) {
		t.Errorf("results differ between built and loaded index:\n%s\nvs\n%s", sb.String(), sb2.String())
	}
}

// TestCorruptIndexCacheIsRebuilt: a cache with a flipped byte is rebuilt
// from the store — the run succeeds, says so, answers as a run without a
// cache does, and leaves a cache the next run maps.
func TestCorruptIndexCacheIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "idx.bin")
	query := smallArgs("-query", "3:50", "-scale", "2", "-eps-frac", "0.001")

	// Baseline answer with no cache involved.
	var fresh strings.Builder
	if err := run(query, &fresh); err != nil {
		t.Fatal(err)
	}

	// Build the cache, then flip one byte in the middle of it.
	var sb strings.Builder
	if err := run(append(query, "-index-cache", cache), &sb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(cache, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var rebuilt strings.Builder
	if err := run(append(query, "-index-cache", cache), &rebuilt); err != nil {
		t.Fatalf("corrupt cache failed the run: %v", err)
	}
	if !strings.Contains(rebuilt.String(), "rebuilt (") {
		t.Errorf("rebuild not reported:\n%s", rebuilt.String())
	}
	tail := func(s string) string { return s[strings.Index(s, "matches"):] }
	if tail(rebuilt.String()) != tail(fresh.String()) {
		t.Errorf("rebuilt results differ from fresh build:\n%s\nvs\n%s",
			rebuilt.String(), fresh.String())
	}
	var again strings.Builder
	if err := run(append(query, "-index-cache", cache), &again); err != nil || !strings.Contains(again.String(), "mapped from") {
		t.Fatalf("the rewritten cache was not mapped (%v):\n%s", err, again.String())
	}
	if tail(again.String()) != tail(fresh.String()) {
		t.Errorf("results over the rewritten cache differ from fresh build")
	}
}

func TestBinaryStoreArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prices.bin")
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 10
	cfg.Days = 100
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var sb strings.Builder
	if err := run([]string{"-store", path, "-window", "32", "-query", "0:10", "-eps", "0.5"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "database: 10 sequences") {
		t.Errorf("binary store not loaded:\n%s", sb.String())
	}

	// A damaged store is a one-line failure, not a wrong answer: unlike
	// an index, which is rebuilt from it, the store is the data.  This
	// holds with a good index cache beside it, too.
	cache := filepath.Join(dir, "idx.bin")
	if err := run([]string{"-store", path, "-window", "32", "-query", "0:10", "-eps", "0.5", "-index-cache", cache}, &sb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	for what, bad := range map[string][]byte{"truncated": raw[:len(raw)-7], "flipped": flipped} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		sb.Reset()
		err = run([]string{"-store", path, "-window", "32", "-query", "0:10", "-eps", "0.5", "-index-cache", cache}, &sb)
		if err == nil {
			t.Fatalf("%s store artifact accepted", what)
		}
		if !strings.Contains(err.Error(), "unusable") {
			t.Errorf("%s store: error lacks diagnostic: %v", what, err)
		}
	}
}

func TestQueryExplainAndForcedPaths(t *testing.T) {
	// -explain prints the plan; forced paths return identical results.
	query := smallArgs("-query", "3:50", "-scale", "2", "-eps-frac", "0.001", "-explain")
	outputs := map[string]string{}
	for _, path := range []string{"auto", "rtree", "scan"} {
		var sb strings.Builder
		if err := run(append(query, "-path", path), &sb); err != nil {
			t.Fatalf("-path %s: %v", path, err)
		}
		out := sb.String()
		if !strings.Contains(out, "plan: path=") || !strings.Contains(out, "stages:") {
			t.Errorf("-path %s: no explain output:\n%s", path, out)
		}
		outputs[path] = out[strings.Index(out, "matches"):]
	}
	if outputs["rtree"] != outputs["scan"] || outputs["auto"] != outputs["rtree"] {
		t.Errorf("forced paths disagree:\nauto: %s\nrtree: %s\nscan: %s",
			outputs["auto"], outputs["rtree"], outputs["scan"])
	}
	if strings.Contains(outputs["auto"], "forced") {
		t.Errorf("auto plan claims to be forced:\n%s", outputs["auto"])
	}

	// An unknown path name is rejected — "trail", the retired sub-trail
	// probe, like any other.
	var sb strings.Builder
	for _, name := range []string{"trail", "btree"} {
		sb.Reset()
		if err := run(append(query, "-path", name), &sb); err == nil || !strings.Contains(err.Error(), "unknown access path") {
			t.Errorf("-path %s: err = %v, want an unknown access path", name, err)
		}
	}
	// -path is meaningless for nearest-neighbour search.
	sb.Reset()
	if err := run(smallArgs("-query", "2:20", "-nn", "3", "-path", "scan"), &sb); err == nil {
		t.Error("-path with -nn accepted")
	}
	// Long queries honour the forced path too.
	sb.Reset()
	if err := run(smallArgs("-query", "2:20", "-long", "-eps-frac", "0.001",
		"-explain", "-path", "scan"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "path=scan") {
		t.Errorf("long explain output:\n%s", sb.String())
	}
}

// TestQueryBulkMode: the bulk build is the only build, and -bulk is not
// a flag.
func TestQueryBulkMode(t *testing.T) {
	var sb strings.Builder
	if err := run(smallArgs("-query", "3:50", "-eps-frac", "0.001"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "HK0004") {
		t.Errorf("the default build missed the source:\n%s", sb.String())
	}
	if err := run(smallArgs("-query", "3:50", "-bulk"), &sb); err == nil {
		t.Error("-bulk is still accepted")
	}
}
