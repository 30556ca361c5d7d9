// Package engine is the query-engine layer between the public search
// API and the physical access paths.  The paper's §6 R*-tree probe is
// one of several ways to answer a range query Q ~ε S': the tree wins
// when ε is small and the SE-line penetrates few directory MBRs, but a
// sequential SE-plane scan wins on small stores or huge ε (where the
// tree visits every node and then verifies every window anyway).
//
// The planner is two estimates and a choice: a segment of the index
// (internal/core) fills one PathPlan row per path — its availability
// and the cost the pure Estimate* functions predict from the segment's
// structural hints — and ChoosePath picks the cheapest available row.
// Candidate verification is NOT part of a path: every path feeds the
// same exact post-processing check, which is what makes the choice
// invisible in the result set (the bit-identical-results invariant,
// DESIGN.md §8).
package engine

import (
	"errors"
	"fmt"
	"io"
	"time"

	"scaleshift/internal/vec"
)

// ErrUnsupported tags a query that asks for an operation the current
// index state or configuration cannot serve — a forced path that is
// unavailable or not in the plan table, or no access path at all.  These
// are the caller's problem, not the path's: serving layers use
// errors.Is(err, ErrUnsupported) to map them to 4xx responses.
var ErrUnsupported = errors.New("unsupported operation")

// PathKind identifies an access path.
type PathKind int

const (
	// PathAuto lets the planner choose the cheapest available path.
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
// bounds.  It carries no data pointers, so cost estimation is a pure
// function of this struct and a segment's structural hints.
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

// Cost is a predicted probe cost in abstract units where 1 unit is one
// window verification (the shared verifier's prefix-sum pass).
type Cost struct {
	// Candidates is the expected number of windows emitted.
	Candidates float64
	// NodeReads is the expected number of index pages touched.
	NodeReads float64
	// Units is the total cost: NodeReadCost·NodeReads + Candidates.
	Units float64
}

// PathPlan is one row of a segment's plan table: what the planner knew
// about one path.  Availability is structural — it depends on how the
// segment stores its windows, never on the query — so a forced path
// either always works or always errors.
type PathPlan struct {
	Path      PathKind
	Available bool
	// Reason explains unavailability (empty when available).
	Reason string
	// Cost is the estimate for an available path, zero otherwise.
	Cost Cost
}

// Explain records one planned query: the decision, the per-path
// estimates it was based on, and the actuals filled in by the
// executor — the query engine's EXPLAIN ANALYZE.
type Explain struct {
	// Chosen is the path that ran; Forced reports whether the caller
	// forced it rather than letting the cost model decide.
	Chosen PathKind
	Forced bool
	// Plans is the plan table — one row per path, in preference order —
	// of the segment that set Chosen: the largest frozen one (an Index
	// has exactly one).
	Plans []PathPlan
	// EstCandidates is the predicted candidate count of the chosen
	// paths, summed over the probed segments; ActualCandidates is what
	// the probe emitted.
	EstCandidates    float64
	ActualCandidates int
	// Matches counts verified results; NormCertified those of them
	// counted from their window statistics without the window being
	// read (a row limit, no cost bound, the window's own norm within ε).
	Matches       int
	NormCertified int
	// Pieces is 1 for a plain range query and the number of length-n
	// pieces for a multipiece (long-query) search, where the recorded
	// estimates are the first piece's and the actuals are totals.
	Pieces int
	// PlanTime, ProbeTime, and VerifyTime are the per-stage wall-clock
	// times of this query.
	PlanTime, ProbeTime, VerifyTime time.Duration
	// TraceID links this plan to the structured trace the query
	// produced (empty when tracing was off or no trace was active).
	TraceID string
	// Segments holds one entry per probed segment: each frozen segment
	// is planned independently and the mutable delta of a segmented
	// (LSM-style) index is filtered by the leaf test.  An Index is one
	// frozen segment.
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
	// over every window, PathScan (forced only) emits them all.
	Chosen PathKind
	// Cost is the estimate the per-segment choice was based on; the
	// delta's is priced from the selectivity the frozen segments'
	// samples measured for the query.
	Cost Cost
	// Candidates is what the segment's probe actually emitted.
	Candidates int
}

// WriteText renders the plan in ssquery -explain form.
func (e *Explain) WriteText(w io.Writer) error {
	mode := "cost-based"
	if e.Forced {
		mode = "forced"
	}
	if _, err := fmt.Fprintf(w, "plan: path=%s (%s)\n", e.Chosen, mode); err != nil {
		return err
	}
	for _, p := range e.Plans {
		if !p.Available {
			if _, err := fmt.Fprintf(w, "  %-5s unavailable: %s\n", p.Path, p.Reason); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-5s est-cost=%.4g (candidates %.4g, node reads %.4g)\n",
			p.Path, p.Cost.Units, p.Cost.Candidates, p.Cost.NodeReads); err != nil {
			return err
		}
	}
	if e.Pieces > 1 {
		if _, err := fmt.Fprintf(w, "  pieces: %d (multipiece long query; per-piece estimates above)\n", e.Pieces); err != nil {
			return err
		}
	}
	for _, sp := range e.Segments {
		label := fmt.Sprintf("seg %d", sp.Seg)
		if sp.Seg < 0 {
			label = "delta"
		}
		if _, err := fmt.Fprintf(w, "  %-6s %-6s windows=%d path=%s est-cost=%.4g candidates=%d\n",
			label, sp.Kind, sp.Windows, sp.Chosen, sp.Cost.Units, sp.Candidates); err != nil {
			return err
		}
	}
	norm := ""
	if e.NormCertified > 0 {
		norm = fmt.Sprintf(" (%d norm-certified)", e.NormCertified)
	}
	if _, err := fmt.Fprintf(w, "  candidates: %d actual vs %.4g estimated; %d matched%s\n",
		e.ActualCandidates, e.EstCandidates, e.Matches, norm); err != nil {
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
