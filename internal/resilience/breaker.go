package resilience

import (
	"sync"
	"time"

	"scaleshift/internal/obs"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows, outcomes are recorded.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is rejected until the open timeout elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe at a time is allowed through; enough
	// successes close the breaker, any failure reopens it.
	BreakerHalfOpen
)

// String renders the state for logs and /readyz.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker.  The zero value is unusable; use
// DefaultBreakerConfig as a base.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failed or slow
	// probes that trips the breaker open.
	FailureThreshold int
	// SlowThreshold classifies a successful probe as "slow" (counted
	// like a failure): a remote answering in 30s is still an outage
	// amplifier.  Zero disables slowness accounting.
	SlowThreshold time.Duration
	// OpenTimeout is how long the breaker stays open before
	// half-opening to admit a probe.
	OpenTimeout time.Duration
	// HalfOpenSuccesses is the number of consecutive successful
	// half-open probes required to close again.
	HalfOpenSuccesses int
	// Registry receives the breaker metrics; nil uses obs.Default.
	Registry *obs.Registry
	// Labels are attached to every breaker metric.  A process running
	// several breakers at once (the scatter-gather coordinator keeps
	// one per shard) distinguishes them here, e.g. {shard="3"}.
	Labels []obs.Label
	// Clock is the time source, injectable so tests (and the cluster
	// client's retry tests) can drive open-timeout expiry without
	// sleeping; nil uses time.Now.
	Clock func() time.Time
	// now is the legacy internal clock field; Clock takes precedence.
	now func() time.Time
}

// DefaultBreakerConfig is the serving default: trip after 5
// consecutive bad probes, probes slower than 5s count as bad, stay
// open 10s, close after 2 good probes.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		FailureThreshold:  5,
		SlowThreshold:     5 * time.Second,
		OpenTimeout:       10 * time.Second,
		HalfOpenSuccesses: 2,
	}
}

// Breaker is a state-machine circuit breaker.  It protects a path —
// a coordinator's shard client — from repeated slow or failing probes:
// after FailureThreshold consecutive bad outcomes it rejects callers
// outright, half-opening on a timer to test whether the path has
// recovered.
//
// A mutex serializes transitions; the breaker sits in front of network
// round trips, so one uncontended lock per request is noise.
type Breaker struct {
	mu          sync.Mutex
	cfg         BreakerConfig
	state       BreakerState
	consecFails int
	halfOpenOK  int
	probing     bool // a half-open probe is in flight
	openedAt    time.Time

	stateGauge  *obs.Gauge
	transitions *obs.Counter
	rejected    *obs.Counter
}

// NewBreaker builds a breaker; it panics on a non-positive threshold
// or timeout (validated config is a programmer contract, as with
// NewAdmission).
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 || cfg.OpenTimeout <= 0 || cfg.HalfOpenSuccesses <= 0 {
		panic("resilience: breaker thresholds must be positive")
	}
	if cfg.Clock != nil {
		cfg.now = cfg.Clock
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	b := &Breaker{
		cfg:         cfg,
		stateGauge:  reg.Gauge("scaleshift_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.", cfg.Labels...),
		transitions: reg.Counter("scaleshift_breaker_transitions_total", "Circuit breaker state transitions.", cfg.Labels...),
		rejected:    reg.Counter("scaleshift_breaker_rejected_total", "Requests rejected by the open circuit breaker.", cfg.Labels...),
	}
	b.stateGauge.Set(0)
	return b
}

// setState transitions and records; callers hold b.mu.
func (b *Breaker) setState(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	b.transitions.Inc()
	switch s {
	case BreakerClosed:
		b.stateGauge.Set(0)
	case BreakerOpen:
		b.stateGauge.Set(1)
		b.openedAt = b.cfg.now()
	case BreakerHalfOpen:
		b.stateGauge.Set(2)
		b.halfOpenOK = 0
	}
}

// State returns the breaker's current position, half-opening first if
// the open timeout has elapsed (so /readyz sees the live state).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// maybeHalfOpen moves Open -> HalfOpen once the timer expires; callers
// hold b.mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == BreakerOpen && b.cfg.now().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		b.setState(BreakerHalfOpen)
		b.probing = false
	}
}

// Allow decides whether a request may use the protected path.  It
// returns nil (closed, or the single half-open probe) or a
// *BreakerOpenError whose RetryAfter says when the next probe will be
// admitted.  A caller that gets nil MUST call Record with the
// outcome, or a half-open breaker wedges waiting for its probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerHalfOpen:
		if b.probing {
			b.rejected.Inc()
			return &BreakerOpenError{RetryAfter: retryAfterFloor(0)}
		}
		b.probing = true
		return nil
	default: // BreakerOpen
		b.rejected.Inc()
		remaining := b.cfg.OpenTimeout - b.cfg.now().Sub(b.openedAt)
		return &BreakerOpenError{RetryAfter: retryAfterFloor(remaining)}
	}
}

// Record reports the outcome of an allowed probe.  err != nil or a
// duration past SlowThreshold counts against the path.  Outcomes that
// say nothing about path health — the client hung up, or the request
// itself was malformed/unsupported — must go through RecordNeutral
// instead: recording them here would count a non-observation as
// evidence for (or against) the path.
func (b *Breaker) Record(d time.Duration, err error) {
	bad := err != nil || (b.cfg.SlowThreshold > 0 && d >= b.cfg.SlowThreshold)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if bad {
			b.consecFails++
			if b.consecFails >= b.cfg.FailureThreshold {
				b.setState(BreakerOpen)
			}
		} else {
			b.consecFails = 0
		}
	case BreakerHalfOpen:
		b.probing = false
		if bad {
			b.consecFails = b.cfg.FailureThreshold
			b.setState(BreakerOpen)
		} else {
			b.halfOpenOK++
			if b.halfOpenOK >= b.cfg.HalfOpenSuccesses {
				b.consecFails = 0
				b.setState(BreakerClosed)
			}
		}
	case BreakerOpen:
		// A straggler from before the trip; its outcome is stale.
	}
}

// RecordNeutral discharges an Allow whose outcome proved nothing about
// the path: a client-canceled request, or one rejected for the
// caller's own mistake (invalid query, unsupported operation).  It
// satisfies the "allowed callers MUST report back" contract — in
// half-open it frees the probe slot so a real probe can run — without
// moving the failure streak or the half-open success count in either
// direction.  Two canceled probes must not close a breaker the path
// never actually answered for.
func (b *Breaker) RecordNeutral() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}
