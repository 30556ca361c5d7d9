// Package cluster implements distributed scatter-gather serving: the
// "one box → fleet" step.  Sequences are hash-partitioned across N
// shard processes — each a full ssserve node over its own checksummed
// artifacts — and a coordinator fans every query out, merges the
// per-shard answers exactly, and degrades per fault domain: a slow,
// corrupted, or crashed shard costs its slice of the answer, never the
// whole query.
//
// The pieces:
//
//   - Manifest (SSMAN artifact): the deterministic partitioning record
//     ssgen -shards writes and the coordinator validates at startup,
//     mapping shard-local sequence ids back to global ones.
//   - Shard: the per-shard HTTP client — per-attempt deadlines,
//     bounded retries with jittered backoff, optional tail hedging,
//     and a three-state circuit breaker (internal/resilience) so a
//     flapping shard is skipped instead of re-probed on every query.
//   - MergeRange / MergeKNN: exact result merging.  Range results are
//     deduplicated by (seq, start); k-NN results flow through a global
//     candidate heap fed by the per-shard sorted lists, whose heads
//     lower-bound everything behind them, so the merge terminates as
//     soon as the global top-k is known.
//   - Coordinator: the scatter-gather engine with explicit
//     partial-result semantics — every gather reports per-shard
//     coverage (ok / failed, with trace ids), and a failed
//     fault domain yields a partial answer, never a silently-wrong one.
//
// Exactness argument (DESIGN.md §16 carries the full proofs): the
// partition is a disjoint cover of the sequence set, every per-shard
// result is exactly verified against the shard's own store (the same
// bytes the union store holds), and both merge operators preserve
// set-union semantics, so a gather over healthy shards is bit-identical
// to a single-node search over the union store.
package cluster

import (
	"hash/crc32"
	"hash/fnv"
)

// castagnoli matches the CRC polynomial the artifact layer (binio)
// uses everywhere else.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AssignShard deterministically maps a sequence name to a shard.
// FNV-1a over the name keeps the assignment stable across runs,
// machines, and store orderings — the property the manifest's
// validation (and any future re-partitioning tool) relies on.
func AssignShard(name string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// Fingerprint condenses a shard's sequence identity (names, in
// shard-local order) into one checksum.  The manifest records it per
// shard and the coordinator compares it against each live shard's
// /shardinfo at startup, catching a mis-wired -shard-addrs list (two
// addrs swapped would silently remap every result) without shipping
// the full name list around.
func Fingerprint(names []string) uint32 {
	h := crc32.New(castagnoli)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum32()
}

// Wire types: the JSON shapes ssserve serves — a shard and the
// coordinator alike — and the coordinator consumes.  They are the one
// declaration of the /search response schema; the field order is the
// byte order of the body.  The coordinator decodes a shard's /search
// payload into these, and encoding/json round-trips float64
// bit-exactly, so distances survive the extra hop unchanged.

// WireMatch is one match as serialized by a shard.  Seq is shard-local
// on the wire; the coordinator remaps it to the global id through the
// manifest before merging.
type WireMatch struct {
	Name  string  `json:"name"`
	Seq   int     `json:"seq"`
	Start int     `json:"start"`
	End   int     `json:"end"`
	Dist  float64 `json:"dist"`
	Scale float64 `json:"scale"`
	Shift float64 `json:"shift"`
}

// WireStats is the per-query cost ledger a shard reports; the
// coordinator sums them across covered shards (each shard's ledger
// satisfies Candidates == FalseAlarms + CostRejected + Results, so the
// sum does too).
type WireStats struct {
	Candidates     int   `json:"candidates"`
	FalseAlarms    int   `json:"false_alarms"`
	CostRejected   int   `json:"cost_rejected"`
	IndexNodeReads int   `json:"index_node_reads"`
	DataPageReads  int   `json:"data_page_reads"`
	PlanNs         int64 `json:"plan_ns"`
	ProbeNs        int64 `json:"probe_ns"`
	VerifyNs       int64 `json:"verify_ns"`
}

// WirePlan summarizes the plan a shard chose.
type WirePlan struct {
	Path          string  `json:"path"`
	Forced        bool    `json:"forced,omitempty"`
	Pieces        int     `json:"pieces,omitempty"`
	EstCandidates float64 `json:"est_candidates"`
}

// CoverageWire states exactly which slice of the data a coordinator's
// answer covers: one entry per fault domain.
type CoverageWire struct {
	Complete bool           `json:"complete"`
	OK       int            `json:"ok"`
	Failed   int            `json:"failed"`
	Shards   []ShardOutcome `json:"shards"`
}

// SearchWire is a GET /search response.  A shard fills Plan; the
// coordinator fills Coverage instead.
type SearchWire struct {
	TraceID   string        `json:"trace_id,omitempty"`
	Query     string        `json:"query"`
	Eps       float64       `json:"eps"`
	ElapsedNs int64         `json:"elapsed_ns"`
	Total     int           `json:"total_matches"`
	Matches   []WireMatch   `json:"matches"`
	Truncated bool          `json:"truncated,omitempty"`
	Stats     WireStats     `json:"stats"`
	Plan      *WirePlan     `json:"plan,omitempty"`
	Coverage  *CoverageWire `json:"coverage,omitempty"`
}

// ShardInfoWire is a shard's /shardinfo response: the identity the
// coordinator validates against the manifest, plus the parameters
// (window length, eps_frac denominator) queries need.
type ShardInfoWire struct {
	Sequences    int     `json:"sequences"`
	Values       int     `json:"values"`
	Windows      int     `json:"windows"`
	WindowLen    int     `json:"window_len"`
	Coefficients int     `json:"coefficients"`
	NormScale    float64 `json:"norm_scale"`
	Fingerprint  uint32  `json:"fingerprint"`
}

// WindowWire is a shard's /window response: raw sequence values, used
// by the coordinator to resolve seq/start-addressed queries into the
// explicit value vector it fans out.
type WindowWire struct {
	Seq    int       `json:"seq"`
	Start  int       `json:"start"`
	Values []float64 `json:"values"`
}
