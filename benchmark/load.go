//go:build unix

package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opResult is what one request reports back to a load loop.
type opResult struct {
	// done is when the response body had been read completely; the
	// oracle check that follows is the harness's own work and is not
	// part of the latency.
	done time.Time
	// ok: 200 and oracle-correct.  shed: 429/503 admission refusal.
	ok, shed bool
}

// phaseStats is the outcome of one timed phase.
type phaseStats struct {
	attempted, failed, shed int
	// latMS holds the latency of every correct response in issue
	// order; lagMS how late each request was sent (open loop only).
	latMS, lagMS []float64
	elapsed      time.Duration
}

func (p *phaseStats) add(o phaseStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.shed += o.shed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop issues count requests at a fixed rate over conns
// connections, one goroutine each: request i is due at start + i/rate
// and belongs to connection i mod conns.  Latency runs from the due
// time, not the send time, so a stalled server is charged for every
// request that queued behind the stall.
func openLoop(conns int, rate float64, count int, do func(conn, i int) opResult) phaseStats {
	type rec struct {
		lat, lag float64
		ok, shed bool
	}
	recs := make([]rec, count)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond) // let every goroutine reach its first sleep
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < count; i += conns {
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				res := do(c, i)
				recs[i] = rec{lat: ms(res.done.Sub(due)), lag: ms(sent.Sub(due)), ok: res.ok, shed: res.shed}
			}
		}(c)
	}
	wg.Wait()
	st := phaseStats{attempted: count, elapsed: time.Since(start)}
	for _, r := range recs {
		st.lagMS = append(st.lagMS, r.lag)
		switch {
		case r.ok:
			st.latMS = append(st.latMS, r.lat)
		case r.shed:
			st.shed++
			st.failed++
		default:
			st.failed++
		}
	}
	return st
}

// sleepUntil blocks the calling thread in nanosleep(2).  time.Sleep
// wakes through the runtime's poller, whose timeout is rounded up to a
// millisecond when the process is otherwise idle - most of an open
// loop's budget for being late.
func sleepUntil(due time.Time) {
	if wait := time.Until(due); wait > 0 {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake-up only sends the request early; lag records it
	}
}

// closedLoop runs clients goroutines that each send their next request
// as soon as the previous one completed, until dur has passed.  Client
// c issues requests c, c+clients, c+2·clients, ...
func closedLoop(clients int, dur time.Duration, do func(client, i int) opResult) phaseStats {
	per := make([]phaseStats, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for i := c; ; i += clients {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				res := do(c, i)
				st.attempted++
				switch {
				case res.ok:
					st.latMS = append(st.latMS, ms(res.done.Sub(sent)))
				case res.shed:
					st.shed++
					st.failed++
				default:
					st.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	total := phaseStats{elapsed: time.Since(start)}
	for _, st := range per {
		total.add(st)
		total.latMS = append(total.latMS, st.latMS...)
	}
	return total
}

// closedCount is a one-client closed loop over exactly count requests.
func closedCount(count int, do func(i int) opResult) phaseStats {
	st := phaseStats{attempted: count}
	start := time.Now()
	for i := 0; i < count; i++ {
		sent := time.Now()
		res := do(i)
		switch {
		case res.ok:
			st.latMS = append(st.latMS, ms(res.done.Sub(sent)))
		case res.shed:
			st.shed++
			st.failed++
		default:
			st.failed++
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// perSecond is the closed-loop throughput: correct responses only.
func (p phaseStats) perSecond() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(len(p.latMS)) / p.elapsed.Seconds()
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// values, or 0 for an empty slice.  values is not modified.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailBeyond is how many samples a tail percentile must leave beyond
// it.
const tailBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least tailBeyond of n samples beyond it.  It is chosen from the planned
// sample count, so a workload reports the same percentile on every
// run of the same length.
func tailPercentile(n int) float64 {
	for _, q := range tailCandidates {
		if n-(rankIndex(n, q)+1) >= tailBeyond {
			return q
		}
	}
	return 0.5
}

// windowLatencies cuts latMS, in issue order, into windows of w samples
// (a remainder shorter than w joins the last window, so fewer than 2w
// samples are one window) and returns the lowest window median, the
// lowest window q-quantile, and the lowest q-quantile / median of one
// window.
//
// The lowest, because the speed of a shared host moves by tens of
// percent in spells of seconds to minutes and that noise is one-sided:
// a neighbour can only slow a window down or stall it, so the quietest
// window is the steadiest reading of the program's own speed, as the
// minimum of N runs is for a timing loop.  The ratio, because within
// one window the host's speed cancels: it is the part of the tail that
// the program makes itself in every window (GC cycles, compactions at
// their usual period, queueing).  A stall rarer than once per window
// shows in neither; the whole-phase percentiles recorded beside these
// keep it.
func windowLatencies(latMS []float64, w int, q float64) (p50, tail, ratio float64) {
	for lo := 0; lo < len(latMS); {
		hi := lo + w
		if len(latMS)-hi < w {
			hi = len(latMS)
		}
		a, b := percentile(latMS[lo:hi], 0.5), percentile(latMS[lo:hi], q)
		if lo == 0 || a < p50 {
			p50 = a
		}
		if lo == 0 || b < tail {
			tail = b
		}
		if a > 0 && (ratio == 0 || b/a < ratio) {
			ratio = b / a
		}
		lo = hi
	}
	return p50, tail, ratio
}

// median is the middle of values (mean of the two middle ones for an
// even count); it is how repetitions combine into one value.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// backlogGrowth compares the median latency of the last quarter of an
// open-loop phase with that of the first quarter; a ratio well above 1
// means the server fell behind the arrival rate.
func backlogGrowth(latMS []float64) float64 {
	q := len(latMS) / 4
	if q == 0 {
		return 1
	}
	first := percentile(latMS[:q], 0.5)
	if first == 0 {
		return 1
	}
	return percentile(latMS[len(latMS)-q:], 0.5) / first
}
