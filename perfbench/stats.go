package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted:
// the smallest sample with at least a q share of the samples at or below
// it. Empty input yields 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of v (the mean of the two middle samples for
// an even count) without modifying v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the percentiles a timing may be reported at, from
// the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// supportedTail returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, or 0 when even the median does not.
// A tail percentile read from fewer samples is an anecdote, not a
// measurement.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// summary is a timing reported the way the benchmark reports every
// timing: its median, the highest percentile its sample count supports,
// and the count.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail_pct"`
	TailAt float64 `json:"tail"`
	P99    float64 `json:"p99"`
}

// summarize digests v. P99 is always filled in, because the metric
// names fix it; Tail says which percentile the sample count supports,
// and a P99 with Tail below 99 must be read with that in mind.
func summarize(v []float64) summary {
	s := sortedCopy(v)
	sum := summary{N: len(s), P50: quantile(s, 0.5), P99: quantile(s, 0.99)}
	if p := supportedTail(len(s)); p > 0 {
		sum.Tail, sum.TailAt = p, quantile(s, p/100)
	}
	return sum
}

// span is one timed call into a layer: its name, wall interval, and the
// index of the span that caused it (-1 for a root). Spans of one request
// share req (-1 when not tied to a request).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

// tracer keeps spans in memory, timed against one origin, for the
// traced run. A nil *tracer records nothing, so untraced code paths call
// it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.origin)
}

// add records an already-measured span.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), end: end.Sub(t.origin), parent: parent, req: req})
	return len(t.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Overlapping children are counted once, and a child reaching outside
// its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := time.Duration(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			cs, ce := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = cs, ce
			} else if ce > curEnd {
				curEnd = ce
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// byName groups span self times, in seconds, by span name.
func (t *tracer) byName() map[string][]float64 {
	out := make(map[string][]float64)
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], self[i].Seconds())
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// scaled returns v with every element multiplied by k, for unit changes.
func scaled(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
