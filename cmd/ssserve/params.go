package main

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/vec"
)

// paramReader reads typed parameters out of a query string and keeps
// the first malformed one as err, so a decoder checks once at the end.
type paramReader struct {
	values url.Values
	err    error
}

// float returns parameter name as a float64, def when it is absent.
func (r *paramReader) float(name string, def float64) float64 {
	v := r.values.Get(name)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("parameter %s: %w", name, err)
	}
	return f
}

// int returns parameter name as an int, def when it is absent.
func (r *paramReader) int(name string, def int) int {
	v := r.values.Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("parameter %s: %w", name, err)
	}
	return n
}

// decodeSearchQuery decodes the GET /search parameters both modes
// accept into the core.Query they describe:
//
//	eps, eps_frac  error bound, absolute or as a fraction of normScale
//	               (the mean window SE-norm; default eps_frac=0.02)
//	nn             k-nearest-neighbour mode when > 0
//	path           auto | rtree | scan
//	scale_min, scale_max, shift_abs   transformation cost bounds
//	limit          cap on returned matches (0 or less = all; default
//	               100), carried by the query as core.Query.Limit
//
// Vec is left nil: the query vector is either explicit (values=, which
// a coordinator forwards unparsed) or a window of the store
// (parseWindowRef).
func decodeSearchQuery(p url.Values, normScale float64) (q core.Query, err error) {
	pr := paramReader{values: p}
	if q.Eps = pr.float("eps", -1); q.Eps < 0 {
		q.Eps = pr.float("eps_frac", 0.02) * normScale
	}
	q.Costs = core.UnboundedCosts()
	if v := pr.float("scale_min", 0); v != 0 {
		q.Costs.ScaleMin = v
	}
	if v := pr.float("scale_max", 0); v != 0 {
		q.Costs.ScaleMax = v
	}
	if v := pr.float("shift_abs", 0); v != 0 {
		q.Costs.ShiftMin, q.Costs.ShiftMax = -v, v
	}
	if nn := pr.int("nn", 0); nn > 0 {
		q.K = nn
	}
	q.Limit = pr.int("limit", 100)
	if pr.err != nil {
		return core.Query{}, pr.err
	}
	if path := p.Get("path"); path != "" {
		if q.Force, err = engine.ParsePathKind(path); err != nil {
			return core.Query{}, err
		}
	}
	return q, nil
}

// windowRef addresses a query as a window of the store, disguised:
// len values of sequence seq from start, each v read as scale·v + shift.
type windowRef struct {
	seq, start, n int
	scale, shift  float64
}

// parseWindowRef reads seq, start, len (default defLen), scale and
// shift (defaults 0, 0, defLen, 1, 0).
func parseWindowRef(p url.Values, defLen int) (windowRef, error) {
	pr := paramReader{values: p}
	ref := windowRef{
		seq: pr.int("seq", 0), start: pr.int("start", 0), n: pr.int("len", defLen),
		scale: pr.float("scale", 1), shift: pr.float("shift", 0),
	}
	if pr.err != nil {
		return windowRef{}, pr.err
	}
	return ref, ref.check()
}

// check is the one bound on len every route that addresses a window
// applies — before anything is allocated for it.
func (ref windowRef) check() error {
	if ref.n <= 0 || ref.n > maxAppendValues {
		return fmt.Errorf("parameter len must be in (0, %d]", maxAppendValues)
	}
	return nil
}

func (ref windowRef) String() string {
	return fmt.Sprintf("window %d:%d len %d (a=%g b=%g)", ref.seq, ref.start, ref.n, ref.scale, ref.shift)
}

// fetch reads the raw window of a checked ref through read — a
// snapshot's QueryWindow, or the owner shard's /window on a
// coordinator.
func (ref windowRef) fetch(read func(seq, start, n int, dst vec.Vector) error) (vec.Vector, error) {
	w := make(vec.Vector, ref.n)
	if err := read(ref.seq, ref.start, ref.n, w); err != nil {
		return nil, err
	}
	return w, nil
}

// parseSearchRequest decodes the /search query string into the query
// to run and a description for traces and events.  The query is either
// explicit (values=) or addresses a window of the store:
//
//	seq, start     address a window of the store (with optional len)
//	scale, shift   disguise the window (defaults 1, 0)
func (s *server) parseSearchRequest(sn *snapshot, r *http.Request) (q core.Query, describe string, err error) {
	p := r.URL.Query()
	if q, err = decodeSearchQuery(p, sn.normScale); err != nil {
		return core.Query{}, "", err
	}
	if values := p.Get("values"); values != "" {
		fields := strings.Split(values, ",")
		q.Vec = make(vec.Vector, len(fields))
		for i, f := range fields {
			if q.Vec[i], err = strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
				return core.Query{}, "", fmt.Errorf("parameter values, field %d: %w", i+1, err)
			}
		}
		return q, fmt.Sprintf("%d explicit values", len(q.Vec)), nil
	}
	if p.Get("seq") == "" && p.Get("start") == "" {
		return core.Query{}, "", fmt.Errorf("provide seq=&start= or values=")
	}
	ref, err := parseWindowRef(p, sn.ix.Options().WindowLen)
	if err != nil {
		return core.Query{}, "", err
	}
	w, err := ref.fetch(sn.ix.QueryWindow)
	if err != nil {
		return core.Query{}, "", err
	}
	q.Vec = vec.Apply(w, ref.scale, ref.shift)
	return q, ref.String(), nil
}
