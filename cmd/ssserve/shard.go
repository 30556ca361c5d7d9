package main

import (
	"fmt"
	"net/http"

	"scaleshift/internal/cluster"
)

// Shard-side surface of the cluster protocol: every ssserve instance
// exposes its identity (/shardinfo) and raw windows (/window) so a
// coordinator can validate it against the SSMAN manifest and resolve
// seq/start-addressed queries against the owning shard.  Both routes
// are read-only views of the serving snapshot and work identically on
// a single node (where /shardinfo simply describes the whole store).

// handleShardInfo reports the snapshot's identity in the cluster wire
// shape.  The fingerprint covers the sequence names in store order —
// the same value ssgen recorded in the manifest for this shard's
// slice, so a coordinator comparing the two catches a mis-wired
// address list or a stale artifact before serving a single query.
func (s *server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	pin := s.snap.Acquire()
	defer pin.Release()
	sn := pin.Value()

	st := sn.ix.Store()
	names := make([]string, st.NumSequences())
	for i := range names {
		names[i] = st.SequenceName(i)
	}
	seqs, values, _ := sn.ix.StoreShape()
	s.writeJSON(w, http.StatusOK, cluster.ShardInfoWire{
		Sequences:    seqs,
		Values:       values,
		Windows:      sn.ix.WindowCount(),
		WindowLen:    sn.ix.Options().WindowLen,
		Coefficients: sn.ix.Options().Coefficients,
		NormScale:    sn.normScale,
		Fingerprint:  cluster.Fingerprint(names),
	})
}

// handleWindow serves raw sequence values: GET /window?seq=&start=&len=.
// seq is shard-local (the only kind of id a shard knows).  All three
// parameters are required; scale and shift are not read.
func (s *server) handleWindow(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query()
	for _, name := range []string{"seq", "start", "len"} {
		if p.Get(name) == "" {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("parameter %s is required", name))
			return
		}
	}
	pr := paramReader{values: p}
	ref := windowRef{seq: pr.int("seq", 0), start: pr.int("start", 0), n: pr.int("len", 0)}
	err := pr.err
	if err == nil {
		err = ref.check()
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	pin := s.snap.Acquire()
	defer pin.Release()
	vals, err := ref.fetch(pin.Value().ix.QueryWindow)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.writeJSON(w, http.StatusOK, cluster.WindowWire{Seq: ref.seq, Start: ref.start, Values: vals})
}
