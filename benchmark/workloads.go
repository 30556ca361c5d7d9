//go:build unix

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
)

// config is one benchmark invocation's environment.
type config struct {
	seed            int64
	seconds         float64
	quick           bool
	companies, days int
	reps            int
	conns           int
	root, tmp       string
	results         string // directory for span files
	ssserve, ssgen  string
	fleet           *fleet
	hc              *http.Client
	// admin carries operator actions (POST /admin/checkpoint) beside the
	// load, so they do not wait for one of hc's pooled connections.
	admin *http.Client
}

// tally counts checked operations; a failed one is a transport error,
// a non-200, a refusal, or an answer the oracle rejects.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string // the first few failures, for the report
}

func (t *tally) record(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.messages) < 5 {
		t.messages = append(t.messages, err.Error())
	}
	return false
}

// fetch performs one request on hc and returns once the body has been
// read; a nil body is a GET, anything else a JSON POST.
func fetch(hc *http.Client, url string, post []byte) (status int, body []byte, done time.Time, err error) {
	var resp *http.Response
	if post == nil {
		resp, err = hc.Get(url)
	} else {
		resp, err = hc.Post(url, "application/json", bytes.NewReader(post))
	}
	if err != nil {
		return 0, nil, time.Now(), err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, time.Now(), err
}

// statusError is nil for a 200 and otherwise quotes the server's reply.
func statusError(status int, body []byte) error {
	if status == http.StatusOK {
		return nil
	}
	return fmt.Errorf("status %d: %s", status, firstLine(body))
}

// refused reports an admission refusal (429 or 503).
func refused(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

func (c *config) get(url string) (status int, body []byte, done time.Time, err error) {
	return fetch(c.hc, url, nil)
}

func (c *config) getJSON(url string, v interface{}) error {
	status, body, _, err := c.get(url)
	if err == nil {
		err = statusError(status, body)
	}
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return json.Unmarshal(body, v)
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// deployment is the set of server processes of one repetition.
type deployment struct {
	cfg   *config
	wl    *workload
	dir   string
	specs []procSpec
	procs []*proc // parallel to specs while running
}

type procSpec struct {
	name string
	addr string
	args []string
}

// front is the process queries are sent to: the coordinator, or the
// only server.
func (d *deployment) front() *proc { return d.procs[len(d.procs)-1] }

// newDeployment lays out dir with the artifacts the servers need and
// fixes their addresses and flags.
func newDeployment(cfg *config, wl *workload, data *dataset, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{cfg: cfg, wl: wl, dir: dir}
	addr := func() (string, error) { return freeAddr() }
	if wl.Cluster {
		var shardAddrs []string
		for i := 0; i < shardCount; i++ {
			sdir := filepath.Join(dir, fmt.Sprintf("shard%d", i))
			if err := os.MkdirAll(sdir, 0o755); err != nil {
				return nil, err
			}
			if err := copyFile(filepath.Join(data.dir, "shards", fmt.Sprintf("shard%d", i), "store.bin"), filepath.Join(sdir, "store.bin")); err != nil {
				return nil, err
			}
			a, err := addr()
			if err != nil {
				return nil, err
			}
			shardAddrs = append(shardAddrs, a)
			d.specs = append(d.specs, procSpec{
				name: fmt.Sprintf("shard%d", i), addr: a,
				args: []string{"-store", filepath.Join(sdir, "store.bin"), "-index", filepath.Join(sdir, "index.bin"), "-bulk", "-addr", a},
			})
		}
		man := filepath.Join(dir, "cluster.ssman")
		if err := copyFile(filepath.Join(data.dir, "shards", "cluster.ssman"), man); err != nil {
			return nil, err
		}
		a, err := addr()
		if err != nil {
			return nil, err
		}
		d.specs = append(d.specs, procSpec{
			name: "coordinator", addr: a,
			args: []string{"-coordinator", "-cluster-manifest", man, "-shard-addrs", strings.Join(shardAddrs, ","), "-addr", a},
		})
		return d, nil
	}
	storePath := filepath.Join(dir, "prices.store")
	if err := copyFile(data.storePath, storePath); err != nil {
		return nil, err
	}
	a, err := addr()
	if err != nil {
		return nil, err
	}
	args := []string{"-store", storePath, "-index", filepath.Join(dir, "prices.index"), "-bulk", "-addr", a}
	if wl.Ingest {
		// The size trigger is off: the server polls it once a second, so
		// where a checkpoint lands in a 4 s repetition would be a race.
		// The harness requests the checkpoints instead (see repetition).
		args = append(args, "-append", "-wal", filepath.Join(dir, "ingest.wal"),
			"-checkpoint", filepath.Join(dir, "ckpt"), "-checkpoint-wal-bytes", "0")
	}
	d.specs = append(d.specs, procSpec{name: "ssserve", addr: a, args: args})
	return d, nil
}

// start executes every process and waits until each /readyz answers
// 200; the returned duration runs from the first exec.  The shards are
// ready before the coordinator starts: a coordinator that finds a shard
// still down backs off for a fixed interval, which would make set-up
// time depend on a race.
func (d *deployment) start() (time.Duration, error) {
	d.procs = d.procs[:0]
	var first time.Time
	for i, s := range d.specs {
		if d.wl.Cluster && i == len(d.specs)-1 {
			if err := waitReady(d.cfg.hc, 60*time.Second, d.procs...); err != nil {
				return 0, err
			}
		}
		p, err := d.cfg.fleet.start(s.name, filepath.Join(d.dir, s.name+".log"), d.cfg.ssserve, s.args...)
		if err != nil {
			return 0, err
		}
		p.base = "http://" + s.addr
		if first.IsZero() {
			first = p.started
		}
		d.procs = append(d.procs, p)
	}
	if err := waitReady(d.cfg.hc, 60*time.Second, d.procs...); err != nil {
		return 0, err
	}
	return time.Since(first), nil
}

// restart SIGKILLs the deployment and starts it again on the same
// directory, times times, and returns the median seconds from the
// kill until every /readyz is ready.
func (d *deployment) restart(times int) (float64, error) {
	var secs []float64
	for k := 0; k < times; k++ {
		killed := time.Now()
		d.kill()
		if _, err := d.start(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(killed).Seconds())
	}
	return median(secs), nil
}

// kill SIGKILLs every process of the deployment.
func (d *deployment) kill() {
	for _, p := range d.procs {
		p.kill()
	}
	d.cfg.hc.CloseIdleConnections() // they point at dead servers now
	d.cfg.admin.CloseIdleConnections()
}

func (d *deployment) logTails() string {
	var b strings.Builder
	for _, p := range d.procs {
		fmt.Fprintf(&b, "--- %s (%s)\n%s\n", p.name, p.logPath, p.logTail(15))
	}
	return b.String()
}

// memstats is the slice of /debug/vars the harness reads.
type memstats struct {
	Mallocs      uint64
	PauseTotalNs uint64
}

// runtimeTotals sums the Go runtime counters of every process.
func (d *deployment) runtimeTotals() (memstats, error) {
	var total memstats
	for _, p := range d.procs {
		var v struct {
			Memstats memstats `json:"memstats"`
		}
		if err := d.cfg.getJSON(p.base+"/debug/vars", &v); err != nil {
			return total, err
		}
		total.Mallocs += v.Memstats.Mallocs
		total.PauseTotalNs += v.Memstats.PauseTotalNs
	}
	return total, nil
}

// appendStream produces the seeded ingest traffic: append k extends
// sequence k mod N by appendSize values that continue that sequence's
// random walk.  The mirror holds every acked append.
type appendStream struct {
	rng    *rand.Rand
	last   []float64
	n      int
	mirror *store.Store
	// log lists the acked appends in order, for the traced run's
	// replica to replay.
	log []ackedAppend
}

type ackedAppend struct {
	seq    int
	values []float64
}

func newAppendStream(seed int64, mirror *store.Store) (*appendStream, error) {
	a := &appendStream{rng: rand.New(rand.NewSource(seed)), mirror: mirror}
	one := make([]float64, 1)
	for seq := 0; seq < mirror.NumSequences(); seq++ {
		if err := mirror.Window(seq, mirror.SequenceLen(seq)-1, 1, one, nil); err != nil {
			return nil, err
		}
		a.last = append(a.last, one[0])
	}
	return a, nil
}

func (a *appendStream) next() (seq int, values []float64) {
	seq = a.n % len(a.last)
	a.n++
	values = make([]float64, appendSize)
	v := a.last[seq]
	for i := range values {
		v *= 1 + 0.01*a.rng.NormFloat64()
		values[i] = v
	}
	a.last[seq] = v
	return seq, values
}

// repResult is what one repetition measured.
type repResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// Samples counts the observations behind each percentile or rate.
	Samples map[string]int `json:"samples"`
	// Validity holds the open-loop self-checks: generator lag and
	// backlog growth.
	Validity map[string]float64 `json:"validity"`
}

// runner carries one workload's run.
type runner struct {
	cfg   *config
	wl    *workload
	data  *dataset
	tally *tally
	// window is the number of open-loop searches in one latency window.
	window int
	// tailQ is the percentile a window's tail is read at, appendTailQ
	// the one ssserve.append_tail_ms reports of its whole phase.
	tailQ, appendTailQ float64
}

func newRunner(cfg *config, wl *workload, data *dataset) *runner {
	r := &runner{cfg: cfg, wl: wl, data: data, tally: &tally{}}
	r.window = windowPasses * len(data.queries)
	r.tailQ = tailPercentile(min(r.window, r.openCount(wl.QueryRate)))
	r.appendTailQ = tailPercentile(r.openCount(wl.AppendRate))
	return r
}

// openPhase is the length of a repetition's open loop: the run's timed
// budget split evenly over the repetitions.
func (r *runner) openPhase() time.Duration {
	return time.Duration(r.cfg.seconds / float64(r.cfg.reps) * float64(time.Second))
}

// closedPhase is the length of the traced repetition's closed loop.
func (r *runner) closedPhase() time.Duration {
	return time.Duration(closedShare * float64(r.openPhase()))
}

// openCount is the number of requests an open loop at rate sends:
// whole passes over the query set when it can make at least one, so
// every query weighs the same in the phase's percentiles.
func (r *runner) openCount(rate float64) int {
	return wholePasses(int(rate*r.openPhase().Seconds()), len(r.data.queries), rate > 0)
}

func (r *runner) knnCount() int {
	return wholePasses(int(knnNominalRate*knnShare*r.openPhase().Seconds()), len(r.data.queries), true)
}

func wholePasses(n, queries int, atLeastOne bool) int {
	if n >= queries {
		n -= n % queries
	}
	if n < 1 && atLeastOne {
		n = 1
	}
	return n
}

// search sends one query to base and checks the answer.
func (r *runner) search(base, path string, check func(*searchResponse) error) (opResult, *searchResponse, int) {
	status, body, done, err := r.cfg.get(base + path)
	res := opResult{done: done, shed: refused(status)}
	if err == nil {
		err = statusError(status, body)
	}
	var resp searchResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err == nil {
		err = check(&resp)
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w", r.wl.Name, path[:min(len(path), 40)], err)
	}
	res.ok = r.tally.record(err)
	return res, &resp, len(body)
}

func (r *runner) rangeOp(base string, i int, complete bool) (opResult, *searchResponse, int) {
	path := r.data.rangePath(r.wl.Frac, i)
	if complete {
		path += "&limit=0"
	}
	return r.search(base, path, func(resp *searchResponse) error {
		return r.data.checkRange(resp, i, r.wl.Frac, complete, r.wl.Ingest)
	})
}

func (r *runner) knnOp(base string, i int) (opResult, *searchResponse, int) {
	check := func(resp *searchResponse) error { return r.data.checkKNN(resp, i) }
	if r.wl.Ingest {
		// Appended windows may enter the true neighbourhood, so on the
		// live ingest server only the shape is checked; the static
		// pre-pass and the durability check carry exactness there.
		check = func(resp *searchResponse) error {
			if len(resp.Matches) != knnK {
				return fmt.Errorf("%d neighbours returned, want %d", len(resp.Matches), knnK)
			}
			return nil
		}
	}
	return r.search(base, r.data.knnPath[i%len(r.data.knnPath)], check)
}

// appendOp posts the stream's next append and mirrors it once acked.
func (r *runner) appendOp(base string, as *appendStream) opResult {
	seq, values := as.next()
	post, err := json.Marshal(struct {
		Seq    int       `json:"seq"`
		Values []float64 `json:"values"`
	}{seq, values})
	var res opResult
	var ack struct {
		Seq    int `json:"seq"`
		SeqLen int `json:"seq_len"`
	}
	if err == nil {
		var status int
		var body []byte
		status, body, res.done, err = fetch(r.cfg.hc, base+"/append", post)
		res.shed = refused(status)
		if err == nil {
			err = statusError(status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &ack)
		}
	}
	if err == nil {
		if want := as.mirror.SequenceLen(seq) + len(values); ack.Seq != seq || ack.SeqLen != want {
			err = fmt.Errorf("ack seq %d len %d, want seq %d len %d", ack.Seq, ack.SeqLen, seq, want)
		}
	}
	if err == nil {
		err = as.mirror.AppendValues(seq, values)
		as.log = append(as.log, ackedAppend{seq, values})
	}
	if err != nil {
		err = fmt.Errorf("append %d: %w", as.n-1, err)
	}
	res.ok = r.tally.record(err)
	return res
}

// checkpoint asks the ingest server for a durable checkpoint now and
// waits for it, as an operator would with POST /admin/checkpoint.
func (r *runner) checkpoint(base string) {
	status, body, _, err := fetch(r.cfg.admin, base+"/admin/checkpoint", []byte("{}"))
	if err == nil {
		err = statusError(status, body)
	}
	if err != nil {
		err = fmt.Errorf("POST /admin/checkpoint: %w", err)
	}
	r.tally.record(err)
}

// prepass is the untimed start of every repetition: it warms the
// server and compares complete (limit=0) answers with the oracle.
func (r *runner) prepass(base string) {
	n := len(r.data.queries)
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += r.cfg.conns {
				if r.wl.Frac == looseFrac && !fullCheck(i, n) {
					continue
				}
				r.rangeOp(base, i, true)
			}
		}(c)
	}
	wg.Wait()
}

// live is a repetition between its traffic and its teardown, handed
// to the traced pass.
type live struct {
	dep    *deployment
	stream *appendStream // ingest_mixed only
}

// repetition runs one fresh deployment through cold set-up, restart,
// pre-pass, the open-loop phase and (ingest) crash recovery with the
// durability check.  A traced repetition (traced != nil) adds the
// closed-loop and k-NN phases and repeated restarts, whose numbers are
// per-layer metrics, and then hands the still-live servers to traced.
func (r *runner) repetition(rep int, traced func(*live) error) (res *repResult, err error) {
	cfg, wl := r.cfg, r.wl
	dir := filepath.Join(cfg.tmp, fmt.Sprintf("%s-rep%d", wl.Name, rep))
	dep, err := newDeployment(cfg, wl, r.data, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil && len(dep.procs) > 0 {
			err = fmt.Errorf("%w\n%s", err, dep.logTails())
		}
		dep.kill()
	}()
	res = &repResult{Metrics: map[string]float64{}, Samples: map[string]int{}, Validity: map[string]float64{}}
	m := res.Metrics
	restarts := 1
	if traced != nil {
		restarts = restartsPerTracedRep
	}

	setup, err := dep.start()
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup.Seconds()
	if !wl.Ingest {
		// A cold start serves from the tree it just built; every later
		// start maps the index artifact.  Traffic goes to a restarted
		// process so the measured serving path is the steady-state one.
		if m["ssserve.recovery_s"], err = dep.restart(restarts); err != nil {
			return nil, err
		}
	}
	base := dep.front().base

	var stream *appendStream
	if wl.Ingest {
		mirror, err := readStore(r.data.storePath)
		if err != nil {
			return nil, err
		}
		if stream, err = newAppendStream(cfg.seed, mirror); err != nil {
			return nil, err
		}
	}
	r.prepass(base)

	timed := r.openLoopPhase(base, stream, res)
	if traced != nil {
		extra, err := r.tracedPhases(dep, base, stream, res)
		if err != nil {
			return nil, err
		}
		timed.add(extra)
	}
	m["ssserve.shed_frac"] = float64(timed.shed) / float64(max(1, timed.attempted))
	m["bench.failed_frac"] = float64(timed.failed) / float64(max(1, timed.attempted))

	if wl.Ingest {
		// Leave every repetition in the same durable state: a current and
		// a previous checkpoint, and a WAL tail of settleAppends records
		// past the newer one for recovery to replay.
		for k := 0; k < 2; k++ {
			r.checkpoint(base)
			closedCount(settleAppends, func(int) opResult { return r.appendOp(base, stream) })
		}
	}

	// Footprint while the servers that took the traffic are still up.
	for _, p := range dep.procs {
		rss, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		m["rss_mb"] += rss
	}
	values := r.data.st.TotalValues()
	if wl.Ingest {
		values = stream.mirror.TotalValues()
		if err := r.ingestCounters(dep, stream, m); err != nil {
			return nil, err
		}
	}

	if traced != nil {
		if err := traced(&live{dep: dep, stream: stream}); err != nil {
			return nil, err
		}
	}

	if wl.Ingest {
		if m["ssserve.recovery_s"], err = dep.restart(restarts); err != nil {
			return nil, err
		}
		r.durability(dep.front().base, stream, rep)
	}
	bytes, err := dirBytes(dir, func(name string) bool { return !strings.HasSuffix(name, ".log") })
	if err != nil {
		return nil, err
	}
	m["space_amp"] = float64(bytes) / float64(8*values)

	dep.kill()
	if r.tally.failed == 0 {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// openLoopPhase is the end-to-end traffic: searches at the workload's
// fixed rate, on ingest_mixed beside appends at theirs.  It returns the
// phase's operation counts.
func (r *runner) openLoopPhase(base string, stream *appendStream, res *repResult) phaseStats {
	cfg, wl, m := r.cfg, r.wl, res.Metrics
	pages := map[int]float64{}
	var pagesMu sync.Mutex
	queryOp := func(_, i int) opResult {
		op, resp, _ := r.rangeOp(base, i, false)
		if op.ok {
			pagesMu.Lock()
			pages[i%len(r.data.queries)] = float64(resp.Stats.IndexNodeReads + resp.Stats.DataPageReads)
			pagesMu.Unlock()
		}
		return op
	}
	var open, appends phaseStats
	if wl.Ingest {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			appends = openLoop(1, wl.AppendRate, r.openCount(wl.AppendRate), func(_, _ int) opResult { return r.appendOp(base, stream) })
		}()
		open = openLoop(1, wl.QueryRate, r.openCount(wl.QueryRate), queryOp)
		wg.Wait()
		m["ssserve.append_p50_ms"] = percentile(appends.latMS, 0.5)
		m["ssserve.append_tail_ms"] = percentile(appends.latMS, r.appendTailQ)
		res.Samples["ssserve.append_p50_ms"] = len(appends.latMS)
		res.Samples["ssserve.append_tail_ms"] = len(appends.latMS)
		res.Validity["append_backlog_growth"] = backlogGrowth(appends.latMS)
	} else {
		open = openLoop(cfg.conns, wl.QueryRate, r.openCount(wl.QueryRate), queryOp)
	}
	m["query_p50_ms"], m["ssserve.query_tail_ms"], m["query_tail_ratio"] = windowLatencies(open.latMS, r.window, r.tailQ)
	for _, name := range []string{"query_p50_ms", "ssserve.query_tail_ms", "query_tail_ratio"} {
		res.Samples[name] = len(open.latMS)
	}
	res.Validity["phase_p50_ms"] = percentile(open.latMS, 0.5)
	res.Validity["phase_tail_ms"] = percentile(open.latMS, r.tailQ)
	var perQuery []float64
	for _, p := range pages {
		perQuery = append(perQuery, p)
	}
	m["pages_per_query"] = mean(perQuery)
	res.Samples["pages_per_query"] = len(perQuery)
	lag := append(append([]float64(nil), open.lagMS...), appends.lagMS...)
	m["bench.gen_lag_ms"] = percentile(lag, 0.99)
	res.Validity["gen_lag_p99_ms"] = m["bench.gen_lag_ms"]
	res.Validity["backlog_growth"] = backlogGrowth(open.latMS)
	open.add(appends)
	return open
}

// tracedPhases are the traced repetition's extra load: a closed loop,
// then k-NN with one client.  On ingest_mixed a checkpoint is requested
// as the closed loop starts, so its cost shows in both closed-loop
// rates.
func (r *runner) tracedPhases(dep *deployment, base string, stream *appendStream, res *repResult) (phaseStats, error) {
	m := res.Metrics
	before, err := dep.runtimeTotals()
	if err != nil {
		return phaseStats{}, err
	}
	var closed, appends phaseStats
	closedOp := func(_, i int) opResult { op, _, _ := r.rangeOp(base, i, false); return op }
	if r.wl.Ingest {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.checkpoint(base)
		}()
		go func() {
			defer wg.Done()
			appends = closedLoop(1, r.closedPhase(), func(_, _ int) opResult { return r.appendOp(base, stream) })
		}()
		closed = closedLoop(1, r.closedPhase(), closedOp)
		wg.Wait()
		m["ssserve.append_per_s"] = appends.perSecond()
		res.Samples["ssserve.append_per_s"] = len(appends.latMS)
	} else {
		closed = closedLoop(r.cfg.conns, r.closedPhase(), closedOp)
	}
	after, err := dep.runtimeTotals()
	if err != nil {
		return phaseStats{}, err
	}
	m["ssserve.query_qps"] = closed.perSecond()
	res.Samples["ssserve.query_qps"] = len(closed.latMS)
	m["ssserve.allocs_per_req"] = float64(after.Mallocs-before.Mallocs) / float64(max(1, closed.attempted+appends.attempted))
	m["ssserve.gc_pause_ms_per_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / closed.elapsed.Seconds()

	knn := closedCount(r.knnCount(), func(i int) opResult { op, _, _ := r.knnOp(base, i); return op })
	m["ssserve.knn_p50_ms"] = percentile(knn.latMS, 0.5)
	res.Samples["ssserve.knn_p50_ms"] = len(knn.latMS)
	closed.add(appends)
	closed.add(knn)
	return closed, nil
}

// ingestCounters reads the background-work counters the append server
// publishes on /readyz.
func (r *runner) ingestCounters(dep *deployment, stream *appendStream, m map[string]float64) error {
	var ready struct {
		Ingest struct {
			Compactions int    `json:"compactions"`
			PauseP99    string `json:"compact_pause_p99"`
		} `json:"ingest"`
		Checkpoint struct {
			Generation int64 `json:"generation"`
		} `json:"checkpoint"`
	}
	if err := r.cfg.getJSON(dep.front().base+"/readyz", &ready); err != nil {
		return err
	}
	pause, err := time.ParseDuration(ready.Ingest.PauseP99)
	if err != nil {
		return fmt.Errorf("/readyz compact_pause_p99: %w", err)
	}
	m["core.compactions"] = float64(ready.Ingest.Compactions)
	m["core.compact_pause_us"] = float64(pause) / float64(time.Microsecond)
	m["ckpt.count"] = float64(ready.Checkpoint.Generation)
	if appended := len(stream.log) * appendSize; appended > 0 {
		// Every checkpoint rewrites the whole store and index, so the
		// bytes written are the count times the artifact's size.
		if info, err := os.Stat(filepath.Join(dep.dir, "ckpt")); err == nil {
			m["ckpt.bytes_per_value"] = float64(ready.Checkpoint.Generation) * float64(info.Size()) / float64(appended)
		}
	}
	return nil
}

// durability checks, after the SIGKILL and restart, that every acked
// append survived: the value count, the tail of every sequence the
// stream touched, and a share of the durabilityQueries tight queries
// against a sequential scan of the mirror.
func (r *runner) durability(base string, stream *appendStream, rep int) {
	mirror := stream.mirror
	var info struct {
		Values int `json:"values"`
	}
	err := r.cfg.getJSON(base+"/shardinfo", &info)
	if err == nil && info.Values != mirror.TotalValues() {
		err = fmt.Errorf("server holds %d values after recovery, mirror %d", info.Values, mirror.TotalValues())
	}
	if err != nil {
		err = fmt.Errorf("durability: /shardinfo: %w", err)
	}
	r.tally.record(err)

	touched := min(stream.n, mirror.NumSequences())
	queries := (durabilityQueries + r.cfg.reps - 1) / r.cfg.reps
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			want := make([]float64, appendSize)
			for seq := c; seq < touched; seq += r.cfg.conns {
				start := mirror.SequenceLen(seq) - appendSize
				var win struct {
					Values []float64 `json:"values"`
				}
				err := r.cfg.getJSON(fmt.Sprintf("%s/window?seq=%d&start=%d&len=%d", base, seq, start, appendSize), &win)
				if err == nil {
					err = mirror.Window(seq, start, appendSize, want, nil)
				}
				if err == nil {
					for i := range want {
						if i >= len(win.Values) || !sameBits(win.Values[i], want[i]) {
							err = fmt.Errorf("value %d differs from the mirror", start+i)
							break
						}
					}
				}
				if err != nil {
					err = fmt.Errorf("durability: tail of sequence %d: %w", seq, err)
				}
				r.tally.record(err)
			}
			for k := c; k < queries; k += r.cfg.conns {
				i := (rep*queries + k) % len(r.data.queries)
				r.search(base, r.data.tightPath[i]+"&limit=0", func(resp *searchResponse) error {
					scan, err := seqscan.Search(mirror, r.data.queries[i].Values, r.data.eps(tightFrac), nil, nil)
					if err != nil {
						return err
					}
					want := make(map[winKey]seqscan.Result, len(scan))
					for _, s := range scan {
						want[winKey{s.Seq, s.Start}] = s
					}
					if resp.Total != len(want) {
						return fmt.Errorf("after recovery total_matches %d, mirror scan %d", resp.Total, len(want))
					}
					return checkMatches(resp, want, true, false, 0)
				})
			}
		}(c)
	}
	wg.Wait()
}
