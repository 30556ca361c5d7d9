//go:build unix

package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Verdicts of one metric x workload row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much b is worse than a, as a share of a (negative
// when b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// judge compares a candidate's repetitions with a baseline's under the
// metric's bound.  A value (the repetitions' median, or their best for
// bestOfReps) that moved by no more than the bound is ok only if the
// repetitions themselves agree that closely; one that moved further is
// worse only if no candidate repetition reaches the baseline's range.
// Everything between is unresolved: the spread is wider than the
// question.
func judge(def metricDef, a, b *metricValue) (verdict string, delta, spread float64) {
	delta = worsening(def.Better, a.Value, b.Value)
	rel := func(mv *metricValue) float64 {
		if mv.Value == 0 {
			return 0
		}
		return (mv.Max - mv.Min) / math.Abs(mv.Value)
	}
	spread = math.Max(rel(a), rel(b))
	// best and worst repetition of each side, in the metric's direction
	aBest, aWorst, bBest, bWorst := a.Min, a.Max, b.Min, b.Max
	if def.Better == higher {
		aBest, aWorst, bBest, bWorst = a.Max, a.Min, b.Max, b.Min
	}
	allBetter := worsening(def.Better, aBest, bWorst) < 0
	allWorse := worsening(def.Better, aWorst, bBest) > 0
	switch {
	case allBetter:
		return verdictOK, delta, spread
	case delta > def.Bound && allWorse:
		return verdictWorse, delta, spread
	case delta > def.Bound || spread > def.Bound:
		return verdictUnresolved, delta, spread
	}
	return verdictOK, delta, spread
}

// compareFiles prints one row per metric x workload of two result
// files and returns 1 when any end-to-end row is worse.
func compareFiles(root, pathA, pathB string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if a.Environment.Seed != b.Environment.Seed || a.Environment.Seconds != b.Environment.Seconds || a.Environment.Quick != b.Environment.Quick {
		fmt.Fprintf(stderr, "benchmark: the files differ in seed, run length or -quick; the rows below do not compare like with like\n")
	}

	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-16s %-30s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse by", "spread", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, def := range bf.EndToEnd {
			ma, mb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if ma == nil || mb == nil {
				continue
			}
			verdict, delta, spread := judge(def, ma, mb)
			counts[verdict]++
			fmt.Fprintf(stdout, "%-16s %-30s %14.4f %14.4f %8.1f%% %7.1f%% %7.1f%%  %s\n",
				name, def.Name, ma.Value, mb.Value, 100*delta, 100*spread, 100*def.Bound, verdict)
		}
		for _, def := range bf.PerLayer {
			ma, mb := wa.PerLayer[def.Name], wb.PerLayer[def.Name]
			if ma == nil || mb == nil || (ma.Value == 0 && mb.Value == 0) {
				continue
			}
			// Per-layer metrics have no bound.  A per-query count is
			// expected to repeat exactly; everything else is shown with
			// its movement.
			note := ""
			if def.Unit == "count" && strings.HasSuffix(def.Name, "_per_query") {
				note = "same"
				if ma.Value != mb.Value {
					note = "differs"
				}
			}
			fmt.Fprintf(stdout, "%-16s %-30s %14.4f %14.4f %8.1f%% %8s %8s  %s\n",
				name, def.Name, ma.Value, mb.Value, 100*worsening(def.Better, ma.Value, mb.Value), "", "", note)
		}
	}
	fmt.Fprintf(stdout, "end-to-end rows: %d ok, %d unresolved, %d worse\n", counts[verdictOK], counts[verdictUnresolved], counts[verdictWorse])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
