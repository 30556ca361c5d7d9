package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/vec"
)

// ShardNode is a minimal in-process shard: the same /search, /window,
// /shardinfo, and /readyz surface a full ssserve shard exposes, served
// straight off a core.Index with none of the serving stack around it.
// The cluster tests and the bench harness build topologies from these
// (via httptest) without spawning processes; the contract they exercise
// — wire shapes, local-id semantics, traceparent echo — is exactly what
// the coordinator relies on against real shards.
type ShardNode struct {
	ix          *core.Index
	normScale   float64
	fingerprint uint32
}

// NewShardNode wraps an index as a shard.  normScale is the shard's
// eps_frac denominator, as ssserve computes at startup.
func NewShardNode(ix *core.Index, normScale float64) *ShardNode {
	st := ix.Store()
	names := make([]string, st.NumSequences())
	for i := range names {
		names[i] = st.SequenceName(i)
	}
	return &ShardNode{ix: ix, normScale: normScale, fingerprint: Fingerprint(names)}
}

// Handler returns the shard's HTTP surface.
func (n *ShardNode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", n.handleSearch)
	mux.HandleFunc("/window", n.handleWindow)
	mux.HandleFunc("/shardinfo", n.handleShardInfo)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeShardJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	return mux
}

func writeShardJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeShardError(w http.ResponseWriter, status int, err error) {
	writeShardJSON(w, status, map[string]string{"error": err.Error()})
}

func (n *ShardNode) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	seqs, values, _ := n.ix.StoreShape()
	degraded, _ := n.ix.Degraded()
	writeShardJSON(w, http.StatusOK, ShardInfoWire{
		Sequences:    seqs,
		Values:       values,
		Windows:      n.ix.WindowCount(),
		WindowLen:    n.ix.Options().WindowLen,
		Coefficients: n.ix.Options().Coefficients,
		NormScale:    n.normScale,
		Fingerprint:  n.fingerprint,
		Degraded:     degraded,
	})
}

func (n *ShardNode) handleWindow(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query()
	seq, err1 := strconv.Atoi(p.Get("seq"))
	start, err2 := strconv.Atoi(p.Get("start"))
	length, err3 := strconv.Atoi(p.Get("len"))
	if err1 != nil || err2 != nil || err3 != nil {
		writeShardError(w, http.StatusBadRequest, fmt.Errorf("seq, start, and len must be integers"))
		return
	}
	vals := make(vec.Vector, length)
	if err := n.ix.QueryWindow(seq, start, length, vals); err != nil {
		writeShardError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeShardJSON(w, http.StatusOK, WindowWire{Seq: seq, Start: start, Values: vals})
}

func (n *ShardNode) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := DecodeSearchQuery(r.URL.Query(), n.normScale, 0)
	if err == nil && q.Vec == nil {
		err = fmt.Errorf("shard search requires values=")
	}
	if err != nil {
		writeShardError(w, http.StatusBadRequest, err)
		return
	}

	var stats core.SearchStats
	res, err := n.ix.Exec(r.Context(), q, &stats)
	if err != nil {
		writeShardError(w, http.StatusUnprocessableEntity, err)
		return
	}

	resp := SearchWire{
		TraceID:   obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)),
		Eps:       q.Eps,
		Total:     res.Total,
		Truncated: res.Total > len(res.Matches),
		Matches:   make([]WireMatch, 0, len(res.Matches)),
	}
	for _, m := range res.Matches {
		resp.Matches = append(resp.Matches, WireMatch{
			Name: m.Name, Seq: m.Seq, Start: m.Start, End: m.Start + len(q.Vec),
			Dist: m.Dist, Scale: m.Scale, Shift: m.Shift,
		})
	}
	resp.Stats = WireStats{
		Candidates:     stats.Candidates,
		FalseAlarms:    stats.FalseAlarms,
		CostRejected:   stats.CostRejected,
		IndexNodeReads: stats.IndexNodeAccesses,
		DataPageReads:  stats.DataPageAccesses,
		PlanNs:         stats.PlanTime.Nanoseconds(),
		ProbeNs:        stats.ProbeTime.Nanoseconds(),
		VerifyNs:       stats.VerifyTime.Nanoseconds(),
	}
	if ex := res.Explain; ex != nil {
		resp.Plan = &WirePlan{Path: ex.Chosen.String(), Degraded: ex.Degraded, DegradedReason: ex.DegradedReason}
	}
	writeShardJSON(w, http.StatusOK, resp)
}
