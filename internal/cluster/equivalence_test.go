package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/vec"
)

// topology is a full in-process cluster next to its single-node oracle:
// the same store served both ways, so every answer has a ground truth.
type topology struct {
	coord   *Coordinator
	union   *core.Index
	man     *Manifest
	servers []*httptest.Server
	norm    float64 // union-store norm scale, for picking meaningful eps
}

func buildTopology(t *testing.T, companies, days, shards int) *topology {
	t.Helper()
	st := testStore(t, companies, days)
	opts := core.DefaultOptions()
	opts.WindowLen = 32

	union, err := core.NewIndex(st, opts)
	if err == nil {
		err = union.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	norm, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}

	parts, man, err := Partition(st, shards)
	if err != nil {
		t.Fatal(err)
	}
	topo := &topology{union: union, man: man, norm: norm}
	addrs := make([]string, shards)
	for i, p := range parts {
		if p.NumSequences() == 0 {
			t.Fatalf("shard %d is empty; pick test parameters that populate every shard", i)
		}
		ix, err := core.NewIndex(p, opts)
		if err == nil {
			err = ix.Build()
		}
		if err != nil {
			t.Fatal(err)
		}
		ns, err := query.SENormScale(p, opts.WindowLen, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewShardNode(ix, ns).Handler())
		t.Cleanup(srv.Close)
		topo.servers = append(topo.servers, srv)
		addrs[i] = srv.URL
	}

	coord, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Manifest:       man,
		Addrs:          addrs,
		Shard:          ShardConfig{AttemptTimeout: 10 * time.Second},
		ConnectTimeout: 10 * time.Second,
		Registry:       obs.NewRegistry(),
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	topo.coord = coord
	return topo
}

// queryValues reads a window of the union store, applies scale and
// shift, and formats it exactly the way the coordinator fans values
// out — so oracle and cluster parse bit-identical queries.
func (topo *topology) queryValues(t *testing.T, seq, start, n int, scale, shift float64) (vec.Vector, string) {
	t.Helper()
	raw := make([]float64, n)
	if err := topo.union.Store().Window(seq, start, n, raw, nil); err != nil {
		t.Fatal(err)
	}
	fields := make([]string, n)
	q := make(vec.Vector, n)
	for i, v := range raw {
		v = v*scale + shift
		fields[i] = strconv.FormatFloat(v, 'g', -1, 64)
		// Parse the formatted text back so the oracle sees exactly the
		// float64 the shards will parse.
		p, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			t.Fatal(err)
		}
		q[i] = p
	}
	return q, strings.Join(fields, ",")
}

type canonMatch struct {
	seq, start        int
	dist, scale, shft uint64 // float bits: equality must be exact, not approximate
}

func canonWire(ms []WireMatch) []canonMatch {
	out := make([]canonMatch, len(ms))
	for i, m := range ms {
		out[i] = canonMatch{m.Seq, m.Start, math.Float64bits(m.Dist), math.Float64bits(m.Scale), math.Float64bits(m.Shift)}
	}
	return out
}

func canonCore(ms []core.Match) []canonMatch {
	out := make([]canonMatch, len(ms))
	for i, m := range ms {
		out[i] = canonMatch{m.Seq, m.Start, math.Float64bits(m.Dist), math.Float64bits(m.Scale), math.Float64bits(m.Shift)}
	}
	return out
}

func sortCanon(ms []canonMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].seq != ms[j].seq {
			return ms[i].seq < ms[j].seq
		}
		return ms[i].start < ms[j].start
	})
}

func diffCanon(t *testing.T, what string, got, want []canonMatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cluster returned %d matches, single node %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d differs:\n  cluster %+v\n  oracle  %+v", what, i, got[i], want[i])
		}
	}
}

func (topo *topology) scatter(t *testing.T, params url.Values, knn int) *GatherResult {
	t.Helper()
	g := topo.coord.Scatter(context.Background(), params, knn, "")
	for _, out := range g.Coverage {
		if out.Err != nil {
			t.Logf("shard %d: %v", out.ID, out.Err)
		}
	}
	return g
}

func TestRangeEquivalence(t *testing.T) {
	topo := buildTopology(t, 14, 140, 3)
	eps := 0.08 * topo.norm
	for _, tc := range []struct {
		name         string
		seq, start   int
		scale, shift float64
	}{
		{"identity", 2, 10, 1, 0},
		{"scaled_shifted", 7, 40, 1.7, 3.25},
		{"negative_shift", 11, 0, 0.6, -12.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, vals := topo.queryValues(t, tc.seq, tc.start, 32, tc.scale, tc.shift)
			var stats core.SearchStats
			res, err := topo.union.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, &stats)
			if err != nil {
				t.Fatal(err)
			}
			single := res.Matches
			if len(single) == 0 {
				t.Fatal("oracle found nothing; the equivalence check would be vacuous")
			}
			params := url.Values{}
			params.Set("values", vals)
			params.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
			g := topo.scatter(t, params, 0)
			if g.Failed != 0 {
				t.Fatalf("healthy topology reported %d failed shards", g.Failed)
			}
			want := canonCore(single)
			sortCanon(want)
			diffCanon(t, "range", canonWire(g.Matches), want)
			if g.ShardResults != len(single) || g.Total != len(single) {
				t.Fatalf("shard result total %d, merged total %d, oracle %d", g.ShardResults, g.Total, len(single))
			}
			// A limit travels to the shards, each of which answers with its
			// own first rows and counts the rest: the merged head and the
			// total must still be the single node's.
			for _, limit := range []int{1, 5, len(single), 1000} {
				params.Set("limit", strconv.Itoa(limit))
				g := topo.scatter(t, params, 0)
				if g.Failed != 0 {
					t.Fatalf("limit %d: healthy topology reported %d failed shards", limit, g.Failed)
				}
				diffCanon(t, fmt.Sprintf("range, limit %d", limit), canonWire(g.Matches), want[:min(limit, len(want))])
				if g.ShardResults != len(single) || g.Total != len(single) {
					t.Fatalf("limit %d: shard result total %d, merged total %d, oracle %d", limit, g.ShardResults, g.Total, len(single))
				}
			}
		})
	}
}

func TestLongQueryEquivalence(t *testing.T) {
	topo := buildTopology(t, 14, 140, 3)
	eps := 0.25 * topo.norm
	q, vals := topo.queryValues(t, 4, 8, 96, 1.2, -2)
	var stats core.SearchStats
	res, err := topo.union.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	single := res.Matches
	if len(single) == 0 {
		t.Fatal("oracle found nothing; raise eps")
	}
	params := url.Values{}
	params.Set("values", vals)
	params.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	g := topo.scatter(t, params, 0)
	if g.Failed != 0 {
		t.Fatalf("healthy topology reported %d failed shards", g.Failed)
	}
	want := canonCore(single)
	sortCanon(want)
	diffCanon(t, "long", canonWire(g.Matches), want)
}

func TestKNNEquivalence(t *testing.T) {
	topo := buildTopology(t, 14, 140, 3)
	const k = 9
	q, vals := topo.queryValues(t, 9, 25, 32, 1, 0)
	var stats core.SearchStats
	res, err := topo.union.Exec(context.Background(), core.Query{Vec: q, K: k}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	single := res.Matches
	if len(single) != k {
		t.Fatalf("oracle returned %d of %d neighbors", len(single), k)
	}
	params := url.Values{}
	params.Set("values", vals)
	params.Set("eps", "1") // ignored by the k-NN path, required by the wire contract
	params.Set("nn", strconv.Itoa(k))
	g := topo.scatter(t, params, k)
	if g.Failed != 0 {
		t.Fatalf("healthy topology reported %d failed shards", g.Failed)
	}
	if len(g.Matches) != k {
		t.Fatalf("cluster returned %d of %d neighbors", len(g.Matches), k)
	}
	// The k-NN orders can differ only on exact distance ties; canonical
	// order is (dist, seq, start), under which both must be identical.
	got, want := canonWire(g.Matches), canonCore(single)
	byDist := func(ms []canonMatch) {
		sort.Slice(ms, func(i, j int) bool {
			di, dj := math.Float64frombits(ms[i].dist), math.Float64frombits(ms[j].dist)
			if di != dj {
				return di < dj
			}
			if ms[i].seq != ms[j].seq {
				return ms[i].seq < ms[j].seq
			}
			return ms[i].start < ms[j].start
		})
	}
	byDist(got)
	byDist(want)
	diffCanon(t, "knn", got, want)

	// A limit cuts the merged top-k; the shards still send all of theirs.
	params.Set("limit", "4")
	g = topo.scatter(t, params, k)
	if g.Total != k || len(g.Matches) != 4 {
		t.Fatalf("limit 4: %d rows, total %d, want 4 of %d", len(g.Matches), g.Total, k)
	}
	got = canonWire(g.Matches)
	byDist(got)
	diffCanon(t, "knn, limit 4", got, want[:4])
}

// TestPartialCoverageAttribution kills one fault domain and checks the
// gather's accounting: the dead shard (and only it) is failed, and the
// merged answer is exactly the oracle minus that shard's sequences —
// degraded, attributed, and never silently wrong.
func TestPartialCoverageAttribution(t *testing.T) {
	topo := buildTopology(t, 14, 140, 3)
	const dead = 1
	topo.servers[dead].Close()

	eps := 0.08 * topo.norm
	q, vals := topo.queryValues(t, 2, 10, 32, 1, 0)
	var stats core.SearchStats
	res, err := topo.union.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	single := res.Matches
	deadSeqs := make(map[int]bool)
	for _, g := range topo.man.Shards[dead].Seqs {
		deadSeqs[g] = true
	}
	var want []canonMatch
	covered := 0
	for _, m := range single {
		if !deadSeqs[m.Seq] {
			want = append(want, canonCore([]core.Match{m})[0])
			covered++
		}
	}
	if covered == len(single) {
		t.Fatal("no oracle match lives on the dead shard; the attribution check would be vacuous")
	}
	sortCanon(want)

	params := url.Values{}
	params.Set("values", vals)
	params.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	g := topo.scatter(t, params, 0)
	if g.Failed != 1 || g.OK != 2 {
		t.Fatalf("coverage ok=%d failed=%d, want ok=2 failed=1", g.OK, g.Failed)
	}
	if !g.Partial() {
		t.Fatal("gather with a dead shard must report partial")
	}
	for _, out := range g.Coverage {
		if (out.ID == dead) != (out.State == "failed") {
			t.Fatalf("shard %d state %q; only shard %d should fail", out.ID, out.State, dead)
		}
	}
	diffCanon(t, "partial", canonWire(g.Matches), want)
}

// TestWindowResolution checks coordinator-side seq/start resolution:
// the owner shard serves exactly the union store's bytes.
func TestWindowResolution(t *testing.T) {
	topo := buildTopology(t, 10, 100, 3)
	for _, seq := range []int{0, 3, 7, 9} {
		got, err := topo.coord.Window(context.Background(), seq, 5, 32)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 32)
		if err := topo.union.Store().Window(seq, 5, 32, want, nil); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sequence %d value %d: cluster %v, store %v", seq, i, got[i], want[i])
			}
		}
	}
	if _, err := topo.coord.Window(context.Background(), topo.man.Sequences, 0, 32); err == nil {
		t.Fatal("out-of-range sequence must not resolve")
	}
}

// TestCoordinatorRejectsMiswiredFleet swaps two shard addresses; the
// fingerprint check must refuse to start rather than remap answers
// through the wrong table.
func TestCoordinatorRejectsMiswiredFleet(t *testing.T) {
	topo := buildTopology(t, 14, 140, 3)
	addrs := []string{topo.servers[1].URL, topo.servers[0].URL, topo.servers[2].URL}
	_, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Manifest:       topo.man,
		Addrs:          addrs,
		Shard:          ShardConfig{AttemptTimeout: 2 * time.Second},
		ConnectTimeout: 5 * time.Second,
		Registry:       obs.NewRegistry(),
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err == nil {
		t.Fatal("coordinator accepted a mis-wired -shard-addrs ordering")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want a fingerprint identity error, got: %v", err)
	}
}
