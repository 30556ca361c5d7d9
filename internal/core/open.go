package core

import (
	"fmt"
	"io"

	"scaleshift/internal/store"
)

// OpenStatus reports how an index came up: healthy (zero value), or
// degraded with the validation failure that caused the fallback.  What
// was opened, and in which shape, is the index's own to say
// (Index.Directory, Index.Converted).
type OpenStatus struct {
	// Degraded is true when the index artifact failed validation and
	// the returned index serves queries through the scan path over
	// the raw store.
	Degraded bool
	// Reason is a one-line human-readable cause (empty when healthy).
	Reason string
	// Err is the underlying load error (nil when healthy); matchable
	// with errors.Is against ErrChecksum, ErrTruncated, ErrVersion.
	Err error
}

// OpenOrRebuild loads an index artifact and degrades instead of
// failing when the artifact is damaged: if LoadIndex rejects r (bad
// checksum, truncation, version skew, store mismatch), the returned
// index has no tree but knows every window of st, so the engine's
// scan path answers every range query with exactly the same match
// set — the acceleration is lost, not the answers.  The status says
// which of the two happened; an error is returned only when even the
// degraded index cannot be constructed (invalid opts).
//
// A degraded index is read-only: mutation and serialization return
// errors, and nearest-neighbour queries (whose early termination
// needs the tree) fail loudly rather than returning wrong answers.
func OpenOrRebuild(r io.Reader, st *store.Store, opts Options) (*Index, OpenStatus, error) {
	ix, err := LoadIndex(r, st)
	if err == nil {
		return ix, OpenStatus{}, nil
	}
	reason := fmt.Sprintf("index artifact rejected: %v", err)
	deg, derr := NewDegradedIndex(st, opts, reason)
	if derr != nil {
		return nil, OpenStatus{Degraded: true, Reason: reason, Err: err}, derr
	}
	return deg, OpenStatus{Degraded: true, Reason: reason, Err: err}, nil
}

// NewDegradedIndex builds an index that has no tree but marks every
// complete window of every sequence in st as searchable, so its
// segment's scan enumerates all of them and the exact verifier keeps the
// result set identical to a healthy index.  reason is surfaced in
// Explain output and Degraded().
func NewDegradedIndex(st *store.Store, opts Options, reason string) (*Index, error) {
	if reason == "" {
		reason = "unspecified degradation"
	}
	ix, err := NewIndex(st, opts)
	if err != nil {
		return nil, err
	}
	ix.degraded = reason
	ix.install(ix.flat, ix.allWindows())
	return ix, nil
}
