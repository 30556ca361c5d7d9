// Package engine is the vocabulary shared between the public search
// API and the physical access paths.  The paper's §6 R*-tree probe is
// the one way a range query Q ~ε S' is answered: every frozen segment
// of the index (internal/core) is probed down its tree, and the mutable
// delta is filtered by the tree path's leaf test.  A sequential scan of
// every window stays as a path a caller must force — the oracle the
// tree is checked against and a diagnostic for the one regime where it
// is faster, an ε at which nearly every window matches (DESIGN.md §8).
// Candidate verification is NOT part of a path: every path feeds the
// same exact post-processing check, which is what makes the path
// invisible in the result set.
package engine

import (
	"fmt"
	"io"
	"time"

	"scaleshift/internal/vec"
)

// PathKind identifies an access path.
type PathKind int

const (
	// PathAuto is the default: the tree probe, PathRTree.
	PathAuto PathKind = iota
	// PathRTree probes the R*-tree with per-window point entries
	// (the paper's §6 index phase).
	PathRTree
	// PathScan enumerates every indexed window in storage order and
	// relies entirely on the shared verifier (experiment set 1).
	PathScan
	// NumPathKinds sizes arrays indexed by PathKind (the PathAuto slot
	// stays unused in per-path counters).
	NumPathKinds
)

// String names the path for plans, flags, and reports.
func (k PathKind) String() string {
	switch k {
	case PathAuto:
		return "auto"
	case PathRTree:
		return "rtree"
	case PathScan:
		return "scan"
	default:
		return fmt.Sprintf("path(%d)", int(k))
	}
}

// ParsePathKind maps a command-line name to a PathKind.
func ParsePathKind(s string) (PathKind, error) {
	switch s {
	case "auto":
		return PathAuto, nil
	case "rtree":
		return PathRTree, nil
	case "scan":
		return PathScan, nil
	default:
		return 0, fmt.Errorf("engine: unknown access path %q (want auto, rtree, or scan)", s)
	}
}

// Query is the engine's view of one index-phase probe: the query's
// SE-line image in feature space, the (slack-widened) index epsilon,
// and the optional scale-segment restriction derived from the cost
// bounds.
type Query struct {
	// Line is the query's SE-line in feature space (through the origin).
	Line vec.Line
	// Eps is the index-phase error bound, already widened by the
	// numeric slack; the exact verifier reapplies the caller's bound.
	Eps float64
	// Segment restricts the probe to the line segment with parameter
	// t in [TMin, TMax] (scale-factor cost bounds, §3).
	Segment    bool
	TMin, TMax float64
}

// Explain records one range query: the path it ran, one row per probed
// segment, and the actuals filled in by the executor — the query
// engine's EXPLAIN ANALYZE.
type Explain struct {
	// Chosen is the path that ran; Forced reports whether the caller
	// forced it rather than leaving it to the default.
	Chosen PathKind
	Forced bool
	// ActualCandidates is what the probes emitted, summed over pieces.
	ActualCandidates int
	// Matches counts verified results; NormCertified those of them
	// counted from their window statistics without the window being
	// read (a row limit, no cost bound, the window's own norm within ε).
	Matches       int
	NormCertified int
	// Pieces is 1 for a plain range query and the number of length-n
	// pieces for a multipiece (long-query) search, where Segments are
	// the first piece's and the actuals are totals.
	Pieces int
	// PlanTime, ProbeTime, and VerifyTime are the per-stage wall-clock
	// times of this query.  PlanTime is the probe's preparation: the
	// query's SE-line and its engine Query.
	PlanTime, ProbeTime, VerifyTime time.Duration
	// TraceID links this plan to the structured trace the query
	// produced (empty when tracing was off or no trace was active).
	TraceID string
	// Segments holds one entry per probed segment: each frozen segment
	// and the mutable delta of a segmented (LSM-style) index.  An Index
	// is one frozen segment.
	Segments []SegmentPlan
}

// SegmentPlan records how one segment of an index served its share of
// a query's probe.
type SegmentPlan struct {
	// Seg is the frozen segment's position in the manifest; -1 is the
	// mutable delta segment.
	Seg int
	// Kind labels the segment ("frozen" or "delta").
	Kind string
	// Windows is the segment's window count (its candidate universe).
	Windows int
	// Chosen is the access path that probed the segment.  The delta has
	// no directory: PathRTree there is the tree path's leaf test swept
	// over every window, PathScan emits them all.
	Chosen PathKind
	// Candidates is what the segment's probe actually emitted.
	Candidates int
}

// WriteText renders the plan in ssquery -explain form.
func (e *Explain) WriteText(w io.Writer) error {
	mode := "auto"
	if e.Forced {
		mode = "forced"
	}
	if _, err := fmt.Fprintf(w, "plan: path=%s (%s)\n", e.Chosen, mode); err != nil {
		return err
	}
	if e.Pieces > 1 {
		if _, err := fmt.Fprintf(w, "  pieces: %d (multipiece long query; segment rows are the first piece's)\n", e.Pieces); err != nil {
			return err
		}
	}
	for _, sp := range e.Segments {
		label := fmt.Sprintf("seg %d", sp.Seg)
		if sp.Seg < 0 {
			label = "delta"
		}
		if _, err := fmt.Fprintf(w, "  %-6s %-6s windows=%d path=%s candidates=%d\n",
			label, sp.Kind, sp.Windows, sp.Chosen, sp.Candidates); err != nil {
			return err
		}
	}
	norm := ""
	if e.NormCertified > 0 {
		norm = fmt.Sprintf(" (%d norm-certified)", e.NormCertified)
	}
	if _, err := fmt.Fprintf(w, "  candidates: %d; %d matched%s\n", e.ActualCandidates, e.Matches, norm); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  stages: plan=%v probe=%v verify=%v\n",
		e.PlanTime.Round(time.Microsecond), e.ProbeTime.Round(time.Microsecond),
		e.VerifyTime.Round(time.Microsecond)); err != nil {
		return err
	}
	if e.TraceID != "" {
		if _, err := fmt.Fprintf(w, "  trace: %s\n", e.TraceID); err != nil {
			return err
		}
	}
	return nil
}
