// Package resilience is the overload-protection layer for the serving
// path: a deadline-aware admission controller (bounded in-flight
// concurrency plus a bounded wait queue, with typed shedding), a
// state-machine circuit breaker, and a refcounted RCU-style snapshot
// cell for hot artifact reload.
//
// The pieces share one design stance: a fault should cost a bounded
// slice of the service, not the process.  Admission keeps an overload
// from consuming the process (shed early, shed cheaply, tell the client
// when to retry); the breaker keeps a flapping remote — a coordinator's
// shard (internal/cluster) — from being re-probed on every request; the
// snapshot cell lets a new store+index artifact pair swap in atomically
// while in-flight queries finish on the old one.
//
// Every decision the layer makes — admitted, queued, shed (and why),
// breaker transitions, snapshot swaps — is recorded in the obs metrics
// registry, so the layer is observable from the first request.
package resilience

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded is the sentinel matched by errors.Is when the
// admission controller sheds a request.  The concrete error is an
// *OverloadError carrying the shed reason and a retry hint.
var ErrOverloaded = errors.New("resilience: overloaded")

// ErrBreakerOpen is the sentinel matched by errors.Is when the
// circuit breaker rejects a request.  The concrete error is a
// *BreakerOpenError carrying the time until the next probe.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// OverloadError reports why a request was shed and when the client
// should retry.  It unwraps to ErrOverloaded.
type OverloadError struct {
	// Reason is the shed cause: "queue_full", "queue_timeout",
	// "deadline", or "canceled".
	Reason string
	// RetryAfter is the server's estimate of when capacity will free
	// up, suitable for an HTTP Retry-After header.  Always >= 1s so
	// well-behaved clients back off.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("resilience: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// BreakerOpenError reports a rejection by an open circuit breaker.
// It unwraps to ErrBreakerOpen.
type BreakerOpenError struct {
	// RetryAfter is the time until the breaker half-opens and allows
	// a probe.  Always >= 1s.
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("resilience: circuit breaker open, retry after %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrBreakerOpen) hold.
func (e *BreakerOpenError) Unwrap() error { return ErrBreakerOpen }

// retryAfterFloor clamps a retry hint to at least one second: shorter
// hints round to 0 in the integer-seconds Retry-After header and turn
// polite clients into busy-loops.
func retryAfterFloor(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	return d
}
