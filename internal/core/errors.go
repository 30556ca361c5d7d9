package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// ErrInvalidQuery tags every query rejected at the API boundary —
// samples outside the numeric domain (store.InDomain), negative or NaN
// epsilon, wrong length — so callers can distinguish caller bugs
// (errors.Is(err, ErrInvalidQuery)) from index or I/O failures.
// Rejecting these up front matters for more than hygiene: a NaN sample
// would poison the prefix-sum verifier's certified bounds and silently
// drop true matches.
var ErrInvalidQuery = errors.New("invalid query")

// validateQuery rejects range-query epsilons and samples the search
// pipeline cannot answer correctly (length is checked by validate).
func validateQuery(q vec.Vector, eps float64) error {
	if math.IsNaN(eps) || eps < 0 {
		return fmt.Errorf("core: %w: epsilon %v (want a finite value >= 0)", ErrInvalidQuery, eps)
	}
	return validateQueryValues(q)
}

// validateQueryValues checks the samples alone (used by NN search,
// which has no epsilon): each must lie in the numeric domain.
func validateQueryValues(q vec.Vector) error {
	if err := store.CheckDomain(-1, 0, q); err != nil {
		return fmt.Errorf("core: %w: %w", ErrInvalidQuery, err)
	}
	return nil
}

// WorkerPanicError reports a panic recovered inside one of the
// index's worker pools (parallel build, parallel verification, batch
// search), converted to an error so one poisoned window cannot take
// down the process.  Seq/Start locate the offending window (-1 when
// unknown), Value is the recovered panic value, and Stack the
// worker's stack at the panic site.
type WorkerPanicError struct {
	Op         string
	Seq, Start int
	Value      any
	Stack      []byte
}

func (e *WorkerPanicError) Error() string {
	if e.Seq < 0 {
		return fmt.Sprintf("core: panic in %s worker: %v", e.Op, e.Value)
	}
	return fmt.Sprintf("core: panic in %s worker at window (%d, %d): %v", e.Op, e.Seq, e.Start, e.Value)
}

// recoverWorkerPanic converts a panic in a worker goroutine into a
// *WorkerPanicError stored at *dst.  It must be the deferred function
// itself (recover only works directly inside a deferred call); seq
// and start are pointers because defer evaluates arguments
// immediately, and the worker advances them as it claims work.  A
// worker that already recorded an error keeps it — the first failure
// wins.
func recoverWorkerPanic(op string, seq, start *int, dst *error) {
	v := recover()
	if v == nil || *dst != nil {
		return
	}
	s, t := -1, -1
	if seq != nil {
		s = *seq
	}
	if start != nil {
		t = *start
	}
	*dst = &WorkerPanicError{Op: op, Seq: s, Start: t, Value: v, Stack: debug.Stack()}
}

// BatchStatus reports how far one query of a batch got when the batch
// returned — the unit of partial-progress accounting under a
// deadline.
type BatchStatus int

const (
	// BatchComplete: the query ran to completion; its result slot is
	// the full, exact answer.
	BatchComplete BatchStatus = iota
	// BatchIncomplete: the batch's context was cancelled before this
	// query finished; its result slot is nil and must not be treated
	// as "no matches".
	BatchIncomplete
)

// String names the status for logs.
func (s BatchStatus) String() string {
	switch s {
	case BatchComplete:
		return "complete"
	case BatchIncomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}
