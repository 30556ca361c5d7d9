package cluster

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/vec"
)

// ParamReader reads typed parameters out of a query string and keeps
// the first malformed one as Err, so a decoder checks once at the end.
type ParamReader struct {
	Values url.Values
	Err    error
}

// Float returns parameter name as a float64, def when it is absent.
func (r *ParamReader) Float(name string, def float64) float64 {
	v := r.Values.Get(name)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && r.Err == nil {
		r.Err = fmt.Errorf("parameter %s: %w", name, err)
	}
	return f
}

// Int returns parameter name as an int, def when it is absent.
func (r *ParamReader) Int(name string, def int) int {
	v := r.Values.Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil && r.Err == nil {
		r.Err = fmt.Errorf("parameter %s: %w", name, err)
	}
	return n
}

// DecodeSearchQuery decodes the GET /search parameters every node of
// the cluster protocol accepts — a full ssserve and the ShardNode
// fixture alike — into the core.Query they run:
//
//	values         comma-separated explicit query values
//	eps, eps_frac  error bound, absolute or as a fraction of normScale
//	               (the mean window SE-norm; default eps_frac=0.02)
//	nn             k-nearest-neighbour mode when > 0
//	path           auto | rtree | scan
//	scale_min, scale_max, shift_abs   transformation cost bounds
//	limit          cap on returned matches (0 or less = all), carried by
//	               the query as core.Query.Limit
//
// Vec stays nil when values= is absent: whether a query may instead be
// addressed by seq/start is the caller's decision.
func DecodeSearchQuery(p url.Values, normScale float64, defaultLimit int) (q core.Query, err error) {
	pr := ParamReader{Values: p}
	if values := p.Get("values"); values != "" {
		fields := strings.Split(values, ",")
		q.Vec = make(vec.Vector, len(fields))
		for i, f := range fields {
			if q.Vec[i], err = strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
				return core.Query{}, fmt.Errorf("parameter values, field %d: %w", i+1, err)
			}
		}
	}

	if q.Eps = pr.Float("eps", -1); q.Eps < 0 {
		q.Eps = pr.Float("eps_frac", 0.02) * normScale
	}
	q.Costs = core.UnboundedCosts()
	if v := pr.Float("scale_min", 0); v != 0 {
		q.Costs.ScaleMin = v
	}
	if v := pr.Float("scale_max", 0); v != 0 {
		q.Costs.ScaleMax = v
	}
	if v := pr.Float("shift_abs", 0); v != 0 {
		q.Costs.ShiftMin, q.Costs.ShiftMax = -v, v
	}
	if nn := pr.Int("nn", 0); nn > 0 {
		q.K = nn
	}
	q.Limit = pr.Int("limit", defaultLimit)
	if pr.Err != nil {
		return core.Query{}, pr.Err
	}
	if path := p.Get("path"); path != "" {
		if q.Force, err = engine.ParsePathKind(path); err != nil {
			return core.Query{}, err
		}
	}
	return q, nil
}
