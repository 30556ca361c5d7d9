// Package oracle states the repository's exactness invariant once and
// checks it.  By Lemma 2 and Theorems 2–3 of the paper every
// configuration of the index returns exactly the sequential scan's
// match set.  Here a configuration is a Case — a dataset, a mutation
// schedule with checkpoints, crashes and artifact round trips, a shard
// count and a query mix — and "exactly" is Check's comparison with
// internal/seqscan over the same store: the same (Seq, Start) rows in
// the same order, Float64bits-identical Dist, Scale and Shift, the same
// Total, the Limit prefix, and a range query's ledger that passes
// SearchStats.CheckInvariants, counts Total results and, under a Limit,
// classifies every candidate as the unlimited query does.
//
// It is test support: no binary that ships imports it (make cone).
package oracle

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"scaleshift/internal/ckpt"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
	"scaleshift/internal/wal"
)

// Seq is one sequence of a Case's dataset.
type Seq struct {
	Name   string
	Values []float64
}

// Op is the kind of a schedule step.
type Op uint8

const (
	// AppendAndIndex adds sequence Name holding Values.
	AppendAndIndex Op = iota
	// AppendValues grows sequence Seq by Values through its tail.
	AppendValues
	// IndexStore grows sequence Seq — or adds sequence Name — of the
	// store alone by Values, then lets the index catch up with
	// Index.IndexStore.
	IndexStore
	// Compact folds the delta into a new frozen segment.
	Compact
	// Freeze folds every segment and the delta into one.
	Freeze
	// Checkpoint saves the compacted index and its store (ckpt.Save).
	Checkpoint
	// Crash drops the index and recovers it: ckpt.Recover, then a
	// replay of the write-ahead log past the checkpoint.
	Crash
	// WriteBinary reopens the index from its WriteBinary artifact file
	// (LoadIndexFile): the frozen segments, and the delta folded into
	// one more.
	WriteBinary
	// WriteFile does the same, then holds the reopened index's
	// WriteBinary bytes to the file's: a mapped index writes back the
	// bytes it was opened from.
	WriteFile
	// CompactReopen compacts and reopens the index from its WriteBinary
	// bytes through LoadSegments, the checkpoint's reader.
	CompactReopen
	// Unindex removes sequence Seq's windows (UnindexSequence); the scan
	// then skips them.  Only Unindex, Compact, Freeze, WriteBinary and
	// WriteFile may follow: the other steps index the store again.
	Unindex
	numOps
)

var opNames = [numOps]string{"AppendAndIndex", "AppendValues", "IndexStore",
	"Compact", "Freeze", "Checkpoint", "Crash", "WriteBinary", "WriteFile", "CompactReopen", "Unindex"}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Step is one step of a mutation schedule.
type Step struct {
	Op     Op
	Seq    int
	Name   string
	Values []float64
}

// A System answers a batch of queries over the state a Case has
// reached; ix is the index Check holds there.
type System struct {
	Name   string
	Answer func(ix *core.Index, qs []core.Query) ([]core.Result, error)
}

// Case is one configuration: Check builds an index with Opts over
// Data, then runs Steps, answering Queries after the build and after
// every step.
type Case struct {
	// Opts configures the index; a zero WindowLen means
	// core.DefaultOptions with a window of 32.
	Opts core.Options
	Data []Seq
	// Build builds the first index; nil means (*core.Index).Build.
	Build func(*core.Index) error
	// Setup, when set, runs on every index Check opens — built, reopened
	// or recovered — before it is used: compaction knobs, say.
	Setup   func(*core.Index)
	Steps   []Step
	Queries []core.Query
	// Shards, above 1, also answers through cluster.Partition: one
	// Index per shard, merged by cluster.MergeRange and MergeKNN.
	Shards int
	// Systems answer beside the index's own Exec and ExecBatch.
	Systems []System
	// Final, when set, answers Queries only after the last step.
	Final bool
}

// Check runs c and fails t at the first answer that is not the scan's.
func Check(t testing.TB, c Case) {
	t.Helper()
	if err := run(c, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// run is Check, reporting the first difference as an error; dir holds
// the artifacts, checkpoints and log the schedule writes.
func run(c Case, dir string) (err error) {
	if c.Opts.WindowLen == 0 {
		c.Opts = core.DefaultOptions()
		c.Opts.WindowLen = 32
	}
	r := &state{c: c, dir: dir}
	defer func() {
		if r.ix != nil {
			r.ix.Close()
		}
		if r.log != nil {
			r.log.Close()
		}
	}()
	st := store.New()
	for _, s := range c.Data {
		st.AppendSequence(s.Name, s.Values)
		r.model = append(r.model, Seq{s.Name, slices.Clone(s.Values)})
	}
	if r.ix, err = core.NewIndex(st, c.Opts); err != nil {
		return err
	}
	r.setup()
	build := c.Build
	if build == nil {
		build = (*core.Index).Build
	}
	if err := build(r.ix); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if slices.ContainsFunc(c.Steps, func(s Step) bool { return s.Op == Checkpoint || s.Op == Crash }) {
		if r.log, _, err = wal.Open(filepath.Join(dir, "wal")); err != nil {
			return err
		}
	}
	if err := r.verify(len(c.Steps) == 0 || !c.Final); err != nil {
		return fmt.Errorf("after the build: %w", err)
	}
	for i, s := range c.Steps {
		if err := r.apply(s); err != nil {
			return fmt.Errorf("step %d (%v): %w", i, s.Op, err)
		}
		if err := r.verify(i == len(c.Steps)-1 || !c.Final); err != nil {
			return fmt.Errorf("after step %d (%v): %w", i, s.Op, err)
		}
	}
	if !r.matched {
		return fmt.Errorf("none of %d queries matched anything; the check is vacuous", len(c.Queries))
	}
	return nil
}

// state is a Case in progress: the index, the data its store must hold,
// and the write-ahead log when the schedule checkpoints.
type state struct {
	c     Case
	dir   string
	ix    *core.Index
	model []Seq
	log   *wal.Log
	gen   int64 // checkpoints taken
	files int   // artifact files written
	// matched is whether any answer so far was non-empty.
	matched bool
	// unindexed are the sequences Unindex removed.
	unindexed []int
}

func (r *state) apply(s Step) error {
	if len(r.unindexed) > 0 && !slices.Contains([]Op{Unindex, Compact, Freeze, WriteBinary, WriteFile}, s.Op) {
		return fmt.Errorf("%v after Unindex would index the store again", s.Op)
	}
	switch s.Op {
	case AppendAndIndex, AppendValues, IndexStore:
		return r.grow(s)
	case Unindex:
		if err := r.ix.UnindexSequence(s.Seq); err != nil {
			return err
		}
		r.unindexed = append(r.unindexed, s.Seq)
	case Compact:
		return r.ix.Compact()
	case Freeze:
		return r.ix.Freeze()
	case Checkpoint:
		if err := r.ix.Compact(); err != nil {
			return err
		}
		segs, err := r.ix.PinSegments()
		if err != nil {
			return err
		}
		defer segs.Release()
		r.gen++
		meta := ckpt.Meta{Generation: r.gen, WALOffset: r.log.Offset(), CreatedAt: time.Now()}
		_, err = ckpt.Save(filepath.Join(r.dir, "ckpt"), meta, r.ix.Store().Snapshot().WriteBinary, segs, nil)
		return err
	case Crash:
		return r.crash()
	case WriteBinary, WriteFile, CompactReopen:
		return r.reopen(s.Op)
	default:
		return fmt.Errorf("unknown op %v", s.Op)
	}
	return nil
}

// grow applies a step that adds values: logged first, as a server logs
// an append before it applies it, then applied, then put in the model.
func (r *state) grow(s Step) error {
	added := s.Op == AppendAndIndex || s.Op == IndexStore && s.Name != ""
	var err error
	if r.log != nil {
		if added {
			err = r.log.AppendSequence(s.Name, s.Values)
		} else {
			err = r.log.AppendValues(s.Seq, s.Values)
		}
	}
	switch {
	case err != nil:
	case s.Op == AppendAndIndex:
		_, err = r.ix.AppendAndIndex(s.Name, s.Values)
	case s.Op == AppendValues:
		err = r.ix.AppendValues(s.Seq, s.Values)
	case added:
		r.ix.Store().AppendSequence(s.Name, s.Values)
		err = r.ix.IndexStore()
	default:
		if err = r.ix.Store().AppendValues(s.Seq, s.Values); err == nil {
			err = r.ix.IndexStore()
		}
	}
	if err != nil {
		return err
	}
	if added {
		r.model = append(r.model, Seq{s.Name, slices.Clone(s.Values)})
	} else {
		r.model[s.Seq].Values = append(r.model[s.Seq].Values, s.Values...)
	}
	return nil
}

// crash drops the index and the log, and recovers both as a restarting
// server does.
func (r *state) crash() error {
	r.ix.Close()
	r.ix = nil
	r.log.Close()
	r.log = nil
	res, warns, err := ckpt.Recover(filepath.Join(r.dir, "ckpt"))
	if err != nil {
		return err
	}
	r.ix = res.Seg
	r.setup()
	if len(warns) > 0 {
		return fmt.Errorf("recovery warned: %v", warns[0])
	}
	var recs []wal.Record
	if r.log, recs, err = wal.Open(filepath.Join(r.dir, "wal")); err != nil {
		return err
	}
	st := r.ix.Store()
	for _, rec := range recs {
		if rec.End <= res.Meta.WALOffset {
			continue
		}
		seq := rec.Seq
		if rec.Seq < 0 {
			seq = slices.IndexFunc(r.model, func(s Seq) bool { return s.Name == rec.Name })
			if seq >= st.NumSequences() {
				if _, err := r.ix.AppendAndIndex(rec.Name, rec.Values); err != nil {
					return err
				}
				continue
			}
		}
		if err := r.ix.AppendValues(seq, rec.Values); err != nil {
			return err
		}
	}
	return nil
}

// reopen replaces the index with the one its artifact opens to.
func (r *state) reopen(op Op) error {
	st := r.ix.Store()
	var buf bytes.Buffer
	var next *core.Index
	var err error
	if op == CompactReopen {
		var rebuilt []core.SegmentRebuild
		if err = r.ix.Compact(); err == nil {
			err = r.ix.WriteBinary(&buf)
		}
		if err == nil {
			next, rebuilt, err = core.LoadSegments(&buf, st)
		}
		if err == nil && len(rebuilt) > 0 {
			err = fmt.Errorf("a freshly written segment was rebuilt: %v", rebuilt[0].Err)
		}
	} else {
		r.files++
		path := filepath.Join(r.dir, fmt.Sprintf("index%d", r.files))
		if err = r.ix.WriteBinary(&buf); err == nil {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
		if err == nil {
			next, err = core.LoadIndexFile(path, st)
		}
		if err == nil && op == WriteFile {
			written := slices.Clone(buf.Bytes())
			buf.Reset()
			if err = next.WriteBinary(&buf); err == nil && !bytes.Equal(buf.Bytes(), written) {
				err = fmt.Errorf("the mapped index writes %d bytes other than the %d it was opened from", buf.Len(), len(written))
			}
			if err != nil {
				next.Close()
			}
		}
	}
	if err != nil {
		return err
	}
	r.ix.Close()
	r.ix = next
	r.setup()
	return nil
}

func (r *state) setup() {
	if r.c.Setup != nil {
		r.c.Setup(r.ix)
	}
}

// verify holds the store to the data the schedule put there, then, if
// asked, every system's answers to the scan's.
func (r *state) verify(asked bool) error {
	st := r.ix.Store()
	if st.NumSequences() != len(r.model) {
		return fmt.Errorf("the store holds %d sequences, the schedule put %d", st.NumSequences(), len(r.model))
	}
	for seq, s := range r.model {
		got := make([]float64, st.SequenceLen(seq))
		if err := st.Window(seq, 0, len(got), got, nil); err != nil && len(got) > 0 {
			return err
		}
		if st.SequenceName(seq) != s.Name || !slices.Equal(got, s.Values) {
			return fmt.Errorf("sequence %d of the store is not what the schedule put there", seq)
		}
	}
	if !asked {
		return nil
	}
	qs := r.c.Queries
	want := make([]answer, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = scan(st, q, r.unindexed); err != nil {
			return fmt.Errorf("query %d: the scan: %w", i, err)
		}
		r.matched = r.matched || want[i].total > 0
	}
	check := func(system string, got []core.Result) error {
		if len(got) != len(qs) {
			return fmt.Errorf("%s: %d answers to %d queries", system, len(got), len(qs))
		}
		for i, q := range qs {
			if err := want[i].diff(st, got[i]); err != nil {
				return fmt.Errorf("%s, query %d (%s): %w", system, i, describe(q), err)
			}
		}
		return nil
	}

	ctx := context.Background()
	got := make([]core.Result, len(qs))
	var serial core.SearchStats
	for i, q := range qs {
		var stats core.SearchStats
		res, err := r.ix.Exec(ctx, q, &stats)
		if err == nil && q.K == 0 { // k-NN ledgers do not classify their candidates
			err = stats.CheckInvariants()
			if err == nil && stats.Results != res.Total {
				err = fmt.Errorf("the ledger counts %d results of a total %d", stats.Results, res.Total)
			}
			if err == nil && q.Limit > 0 {
				err = limitLedger(r.ix, q, stats, len(res.Matches))
			}
		}
		if err != nil {
			return fmt.Errorf("Exec, query %d (%s): %w", i, describe(q), err)
		}
		got[i] = res
		serial.Add(stats)
	}
	if err := check("Exec", got); err != nil {
		return err
	}
	var batch core.SearchStats
	got, _, err := r.ix.ExecBatch(ctx, qs, 3, &batch)
	if err == nil && (batch.Results != serial.Results || batch.Candidates != serial.Candidates) {
		err = fmt.Errorf("ledger %d results of %d candidates, one query at a time %d of %d",
			batch.Results, batch.Candidates, serial.Results, serial.Candidates)
	}
	if err != nil {
		return fmt.Errorf("ExecBatch: %w", err)
	}
	if err := check("ExecBatch", got); err != nil {
		return err
	}
	systems := r.c.Systems
	if r.c.Shards > 1 && len(r.unindexed) == 0 { // a shard indexes its whole store
		systems = append(slices.Clip(systems), sharded(r.c.Shards))
	}
	for _, sys := range systems {
		got, err := sys.Answer(r.ix, qs)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.Name, err)
		}
		if err := check(sys.Name, got); err != nil {
			return err
		}
	}
	return nil
}

// limitLedger holds the ledger of a range query cut by a Limit to the
// unlimited query's: every candidate classified alike, at most its data
// pages read — the same ones under a finite cost bound, which needs
// every window's (a, b) — and an exact pass for every returned row.
func limitLedger(ix *core.Index, q core.Query, got core.SearchStats, rows int) error {
	q.Limit = 0
	var full core.SearchStats
	if _, err := ix.Exec(context.Background(), q, &full); err != nil {
		return err
	}
	bounded := q.Costs != nil && *q.Costs != core.UnboundedCosts()
	if got.Candidates != full.Candidates || got.FalseAlarms != full.FalseAlarms ||
		got.CostRejected != full.CostRejected || got.Results != full.Results ||
		got.DataPageAccesses > full.DataPageAccesses || full.NormCertified != 0 ||
		bounded && (got.NormCertified != 0 || got.DataPageAccesses != full.DataPageAccesses) ||
		got.ExactChecks < rows || got.ExactChecks+got.NormCertified > got.Candidates {
		return fmt.Errorf("limited ledger %+v, unlimited %+v", got, full)
	}
	return nil
}

// answer is the scan's answer to one query: the rows a system must
// return and the size of the whole answer.
type answer struct {
	rows  []seqscan.Result
	total int
}

// scan answers q by the sequential scan of every sequence but skip's:
// a range query's matches in storage order, or a k-NN query's K
// nearest of the windows the costs pass, nearest first, ties in storage
// order; Limit cuts the rows.
func scan(st *store.Store, q core.Query, skip []int) (answer, error) {
	var keep seqscan.Filter
	if q.Costs != nil {
		keep = q.Costs.Allow
	}
	eps := q.Eps
	if q.K > 0 {
		eps = math.Inf(1)
	}
	rows, err := seqscan.Search(st, q.Vec, eps, keep, nil)
	if err != nil {
		return answer{}, err
	}
	rows = slices.DeleteFunc(rows, func(r seqscan.Result) bool { return slices.Contains(skip, r.Seq) })
	if q.K > 0 {
		slices.SortStableFunc(rows, func(a, b seqscan.Result) int { return cmp.Compare(a.Dist, b.Dist) })
		rows = rows[:min(q.K, len(rows))]
	}
	a := answer{rows: rows, total: len(rows)}
	if q.Limit > 0 && q.Limit < a.total {
		a.rows = rows[:q.Limit]
	}
	return a, nil
}

func (a answer) diff(st *store.Store, got core.Result) error {
	if got.Total != a.total || len(got.Matches) != len(a.rows) {
		return fmt.Errorf("%d rows of %d, the scan %d of %d", len(got.Matches), got.Total, len(a.rows), a.total)
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, m := range got.Matches {
		w := a.rows[i]
		if m.Seq != w.Seq || m.Start != w.Start || m.Name != st.SequenceName(w.Seq) ||
			!same(m.Dist, w.Dist) || !same(m.Scale, w.Scale) || !same(m.Shift, w.Shift) {
			return fmt.Errorf("row %d is %+v, the scan's %+v", i, m, w)
		}
	}
	return nil
}

// describe names a query in a failure message.
func describe(q core.Query) string {
	s := fmt.Sprintf("len %d, eps %g", len(q.Vec), q.Eps)
	if q.K > 0 {
		s = fmt.Sprintf("len %d, %d-NN", len(q.Vec), q.K)
	}
	if q.Costs != nil {
		s += fmt.Sprintf(", costs %+v", *q.Costs)
	}
	if q.Limit > 0 {
		s += fmt.Sprintf(", limit %d", q.Limit)
	}
	if q.Force != 0 {
		s += fmt.Sprintf(", path %v", q.Force)
	}
	return s
}

// sharded answers through a partition of the store into n shards, an
// index built on each, and the coordinator's merges: a range query's
// shards each apply the limit and their totals add up; a k-NN query's
// send their K nearest, and the limit cuts the merged top K.
func sharded(n int) System {
	return System{Name: fmt.Sprintf("%d shards", n), Answer: func(ix *core.Index, qs []core.Query) ([]core.Result, error) {
		parts, man, err := cluster.Partition(ix.Store(), n)
		if err != nil {
			return nil, err
		}
		shards := make([]*core.Index, n)
		for i, p := range parts {
			if shards[i], err = core.NewIndex(p, ix.Options()); err == nil {
				err = shards[i].Build()
			}
			if err != nil {
				return nil, err
			}
			defer shards[i].Close()
		}
		out := make([]core.Result, len(qs))
		for qi, q := range qs {
			sq := q
			if q.K > 0 {
				sq.Limit = 0
			}
			lists := make([][]cluster.WireMatch, n)
			for s, sh := range shards {
				res, err := sh.Exec(context.Background(), sq, nil)
				if err != nil {
					return nil, fmt.Errorf("shard %d: %w", s, err)
				}
				out[qi].Total += res.Total
				for _, m := range res.Matches {
					lists[s] = append(lists[s], cluster.WireMatch{Name: m.Name, Seq: man.Shards[s].Seqs[m.Seq],
						Start: m.Start, Dist: m.Dist, Scale: m.Scale, Shift: m.Shift})
				}
			}
			var merged []cluster.WireMatch
			if q.K > 0 {
				merged = cluster.MergeKNN(lists, q.K)
				out[qi].Total = len(merged)
			} else {
				merged = cluster.MergeRange(lists)
			}
			if q.Limit > 0 && q.Limit < len(merged) {
				merged = merged[:q.Limit]
			}
			out[qi].Matches = Matches(merged)
		}
		return out, nil
	}}
}

// Matches converts wire rows, as shards and coordinators send them, to
// core matches.
func Matches(ws []cluster.WireMatch) []core.Match {
	out := make([]core.Match, len(ws))
	for i, w := range ws {
		out[i] = core.Match{Seq: w.Seq, Start: w.Start, Name: w.Name, Dist: w.Dist, Scale: w.Scale, Shift: w.Shift}
	}
	return out
}
