package store

import (
	"sync"

	"scaleshift/internal/obs"
)

// Page-level instrumentation: PageCounters feed the obs default
// registry the same raw-touch and buffer-miss numbers the per-query
// counters report.  Touches arrive once per query (see PageCounter),
// so verification workers do not contend on the counter's cache line;
// the check is one atomic load when the layer is disabled.
var sm struct {
	once sync.Once

	pageTouches *obs.Counter
	poolMisses  *obs.Counter
}

func initStoreMetrics() {
	r := obs.Default
	sm.pageTouches = r.Counter("scaleshift_store_page_touches_total",
		"Data page touches recorded by PageCounters (raw, before dedup).")
	sm.poolMisses = r.Counter("scaleshift_store_pool_misses_total",
		"Page touches that missed the shared LRU buffer pool.")
}

// recordTouches publishes n raw page touches.
func recordTouches(n int) {
	if n == 0 || !obs.Enabled() {
		return
	}
	sm.once.Do(initStoreMetrics)
	sm.pageTouches.Add(int64(n))
}

// recordPoolMiss publishes one touch that missed the buffer pool.
func recordPoolMiss() {
	if !obs.Enabled() {
		return
	}
	sm.once.Do(initStoreMetrics)
	sm.poolMisses.Inc()
}
