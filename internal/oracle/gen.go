package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/rtree"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// Generate draws a Case from seed: a window of 8, 16 or 32 under the
// DFT or Haar reduction, two to five sequences whose values reach both
// edges of the numeric domain, with constant runs and exact scale/shift
// copies, a schedule of up to eight steps — ops, when given, picks
// their kinds — a shard count of 1 to 3, and the Mix of queries.
func Generate(seed int64, ops ...byte) Case {
	rng := rand.New(rand.NewSource(seed))
	opts := core.DefaultOptions()
	opts.WindowLen = 8 << rng.Intn(3)
	opts.Coefficients = 1 + rng.Intn(3)
	opts.Tree = rtree.DefaultConfig(2 * opts.Coefficients)
	if rng.Intn(4) == 0 {
		opts.Reduction = core.ReductionHaar
	}
	n := opts.WindowLen
	c := Case{Opts: opts, Shards: 1 + rng.Intn(3)}
	for i := range 2 + rng.Intn(4) {
		c.Data = append(c.Data, Seq{fmt.Sprintf("s%d", i), series(rng, n+rng.Intn(6*n))})
	}
	copyWindow(rng, c.Data, c.Data[rng.Intn(len(c.Data))].Values, n)

	// The schedule keeps to what the index allows: a crash recovers the
	// last checkpoint.
	seqs, checkpointed := len(c.Data), false
	steps := 1 + rng.Intn(8)
	if len(ops) > 0 {
		steps = min(len(ops), 16)
	}
	for i := range steps {
		op := Op(rng.Intn(int(numOps)))
		if len(ops) > 0 {
			op = Op(ops[i] % byte(numOps))
		}
		if op == Crash && !checkpointed || op == Unindex {
			op = AppendValues
		}
		s := Step{Op: op, Seq: rng.Intn(seqs), Values: series(rng, 1+rng.Intn(2*n))}
		switch op {
		case AppendAndIndex:
			s.Name = fmt.Sprintf("s%d", seqs)
			if rng.Intn(2) == 0 {
				// An exact copy of a stored window: a distance tie between
				// a frozen window and a delta one.
				src := c.Data[rng.Intn(len(c.Data))].Values
				if len(src) >= n {
					start := rng.Intn(len(src) - n + 1)
					s.Values = slices.Clone(src[start : start+n])
				}
			}
			seqs++
		case IndexStore:
			if rng.Intn(2) == 0 { // a new sequence of the store alone
				s.Name = fmt.Sprintf("s%d", seqs)
				seqs++
			}
		case Checkpoint:
			checkpointed = true
		}
		c.Steps = append(c.Steps, s)
	}
	c.Queries = Mix(c.Data, n, rng.Int63())
	return c
}

// series draws length values: a walk within [1, 100] — at times held
// constant for a run, at times with its sign flipped — scaled by 2^e
// for an e drawn from the whole numeric domain, either edge included.
func series(rng *rand.Rand, length int) []float64 {
	e := []int{0, -200, 193, -200 + rng.Intn(394)}[rng.Intn(4)]
	sign := float64(1 - 2*rng.Intn(2))
	out := make([]float64, length)
	x, hold := 1+99*rng.Float64(), 0
	for i := range out {
		switch {
		case hold > 0:
			hold--
		case rng.Intn(40) == 0:
			hold = rng.Intn(40)
		default:
			x += rng.NormFloat64() * 2
			if x < 1 {
				x = 2 - x
			}
			if x > 100 {
				x = 200 - x
			}
		}
		out[i] = sign * math.Ldexp(x, e)
	}
	return out
}

// copyWindow writes a disguised copy of a window of src, a·w + b, over
// a window of a random sequence of data, when the copy stays in the
// numeric domain.
func copyWindow(rng *rand.Rand, data []Seq, src []float64, n int) {
	dst := data[rng.Intn(len(data))].Values
	if len(src) < n || len(dst) < n {
		return
	}
	start := rng.Intn(len(src) - n + 1)
	w := disguise(rng, src[start:start+n])
	copy(dst[rng.Intn(len(dst)-n+1):], w)
}

// disguise returns a·w + b for a random scale a in [0.5, 2) and shift
// b, or w itself when that leaves the numeric domain.
func disguise(rng *rand.Rand, w []float64) vec.Vector {
	q := vec.Apply(w, 0.5+1.5*rng.Float64(), w[0]*(rng.Float64()-0.5))
	if store.CheckDomain(-1, 0, q) != nil {
		return slices.Clone(w)
	}
	return q
}

// Eps is frac of ‖T_se(q)‖, the scale a query's own shape sets for ε.
func Eps(q vec.Vector, frac float64) float64 {
	return frac * vec.Norm(vec.SETransform(q))
}

// Mix is the standard query mix over data for window length n: from
// disguised windows, range queries at ε from 0 through loose, under a
// scale bound, with a Limit, on each forced path, and k-NN queries
// (k = 1, 5 and above the window count, and under costs no window
// passes); a long multipiece query with and without a Limit; a
// constant query; and noise.
func Mix(data []Seq, n int, seed int64) []core.Query {
	rng := rand.New(rand.NewSource(seed))
	window := func(m int) (vec.Vector, bool) {
		var fit []int
		for i, s := range data {
			if len(s.Values) >= m {
				fit = append(fit, i)
			}
		}
		if len(fit) == 0 {
			return nil, false
		}
		s := data[fit[rng.Intn(len(fit))]].Values
		start := rng.Intn(len(s) - m + 1)
		return disguise(rng, s[start:start+m]), true
	}
	scaleBound := core.CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)}
	none := core.CostBounds{ScaleMin: math.Pi, ScaleMax: math.Pi}
	var qs []core.Query
	for range 2 {
		q, ok := window(n)
		if !ok {
			break
		}
		for _, frac := range []float64{0, 0.001, 0.05, 0.5} {
			qs = append(qs, core.Query{Vec: q, Eps: Eps(q, frac)})
		}
		qs = append(qs,
			core.Query{Vec: q, Eps: Eps(q, 0.3), Costs: scaleBound},
			core.Query{Vec: q, Eps: Eps(q, 0.5), Limit: 1 + rng.Intn(3)},
			core.Query{Vec: q, Eps: Eps(q, 0.05), Force: engine.PathRTree},
			core.Query{Vec: q, Eps: Eps(q, 0.05), Force: engine.PathScan},
			core.Query{Vec: q, K: 1},
			core.Query{Vec: q, K: 5, Costs: scaleBound},
			core.Query{Vec: q, K: 3, Limit: 2},
		)
	}
	if q, ok := window(n); ok {
		qs = append(qs, core.Query{Vec: q, K: 1 << 20}, core.Query{Vec: q, K: 3, Costs: none})
	}
	if q, ok := window(2*n + rng.Intn(n)); ok {
		qs = append(qs, core.Query{Vec: q, Eps: Eps(q, 0.05)}, core.Query{Vec: q, Eps: Eps(q, 0.4), Limit: 2})
	}
	if q, ok := window(n); ok {
		flat := make(vec.Vector, n)
		for i := range flat {
			flat[i] = q[0]
		}
		qs = append(qs, core.Query{Vec: flat, Eps: Eps(q, 0.1)}, core.Query{Vec: flat, K: 2})
		noise := series(rng, n)
		qs = append(qs, core.Query{Vec: noise, Eps: Eps(noise, 0.6)}, core.Query{Vec: noise, K: 4})
	}
	return qs
}

// Stock is a dataset of companies synthetic price series of days
// values each (internal/stock, seeded with seed).
func Stock(companies, days int, seed int64) []Seq {
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days, cfg.Seed = companies, days, seed
	if _, err := stock.Populate(st, cfg); err != nil {
		panic(err)
	}
	return FromStore(st)
}

// FromStore copies a store's sequences out as a dataset.
func FromStore(st *store.Store) []Seq {
	out := make([]Seq, st.NumSequences())
	for seq := range out {
		v := make([]float64, st.SequenceLen(seq))
		if len(v) > 0 {
			if err := st.Window(seq, 0, len(v), v, nil); err != nil {
				panic(err)
			}
		}
		out[seq] = Seq{st.SequenceName(seq), v}
	}
	return out
}
