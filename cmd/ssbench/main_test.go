package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchSmallFig45(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	var sb strings.Builder
	err := run([]string{"-experiment", "fig45", "-scale", "small", "-companies", "15", "-queries", "3", "-csv", csv}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 4", "Figure 5", "set1-seqscan", "set2-tree-ee", "set3-tree-spheres", "Detail"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "method,eps_frac") {
		t.Errorf("CSV malformed: %q", string(data[:60]))
	}
}

func TestBenchAblations(t *testing.T) {
	for _, exp := range []string{"ablation-split", "ablation-build"} {
		var sb strings.Builder
		err := run([]string{"-experiment", exp, "-scale", "small", "-companies", "12", "-queries", "3"}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(sb.String(), "Ablation") {
			t.Errorf("%s output missing table:\n%s", exp, sb.String())
		}
	}
}

func TestBenchNN(t *testing.T) {
	for exp, want := range map[string]string{
		"nn":    "Nearest-neighbour",
		"probe": "leaf-checks    dir-tests   accepted     untested",
		"shape": "per window",
	} {
		var sb strings.Builder
		err := run([]string{"-experiment", exp, "-scale", "small", "-companies", "12", "-queries", "3"}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(sb.String(), want) {
			t.Errorf("%s output:\n%s", exp, sb.String())
		}
	}
}

func TestBenchErrors(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}, nil); err == nil {
		t.Error("bad scale accepted")
	}
	// An unknown experiment — the four that left with the in-process
	// perf harness included — is rejected before anything is built.
	for _, name := range []string{"bogus", "perf", "ingest", "recovery", "cluster", ""} {
		var sb strings.Builder
		if err := run([]string{"-experiment", name, "-scale", "small"}, &sb); err == nil {
			t.Errorf("experiment %q accepted", name)
		}
		if sb.Len() != 0 {
			t.Errorf("experiment %q: ran before being rejected:\n%s", name, sb.String())
		}
	}
	for _, gone := range []string{"-json", "-enforce", "-label"} {
		if err := run([]string{gone, "x", "-scale", "small"}, nil); err == nil {
			t.Errorf("flag %s accepted", gone)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-build", "osmotic", "-scale", "small"}, &sb); err == nil {
		t.Error("bad build mode accepted")
	}
}

func TestBenchParallelBuildAndProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	err := run([]string{"-experiment", "nn", "-scale", "small", "-companies", "12", "-queries", "2",
		"-build", "parallel", "-cpuprofile", cpu, "-memprofile", mem}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "building environment (bulk-parallel)") {
		t.Errorf("output missing build mode:\n%s", sb.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s empty", p)
		}
	}
}
