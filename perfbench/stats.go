package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples the reported tail percentile must leave
// above it: with fewer, the tail is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile, at most 99, that has
// at least minBeyond of n samples beyond it; the median when n is too
// small for any percentile above it to qualify.
func tailPercentile(n int) float64 {
	if n <= 2*minBeyond {
		return 50
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	// Keep two decimals so the nearest-rank index below rounds the same
	// way the caller reads the name.
	p = math.Floor(p*100) / 100
	return math.Min(p, 99)
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// dist summarises one latency sample.
type dist struct {
	n    int
	p50  float64
	tail float64 // value at tailPct
	pct  float64 // the percentile tail reports (99 when the sample allows)
	mean float64
}

// summarize sorts xs in place and reports its median and its tail
// percentile under the minBeyond rule.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{n: len(xs), pct: tailPercentile(len(xs))}
	if d.n == 0 {
		return d
	}
	d.p50 = percentile(xs, 50)
	d.tail = percentile(xs, d.pct)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	d.mean = sum / float64(d.n)
	return d
}

// median of xs (sorted in place); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return percentile(xs, 50)
}

// span is one recorded interval in nanoseconds since the trace origin.
type span struct {
	start, end int64
	label      uint8 // which endpoint or layer
}

func (s span) dur() int64 { return s.end - s.start }

// selfTime is parent's duration minus the part of its interval that the
// union of children covers; children may overlap each other and need
// not be sorted.
func selfTime(parent span, children []span) int64 {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			iv = append(iv, span{start: s, end: e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range iv {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// nest sorts parents by start and assigns every child to the parent
// whose interval contains it. Parents must not overlap each other,
// which holds when one connection carries every request. Children
// contained in no parent are dropped and counted.
func nest(parents, children []span) (kids [][]span, orphans int) {
	ps := parents
	sort.Slice(ps, func(i, j int) bool { return ps[i].start < ps[j].start })
	kids = make([][]span, len(ps))
	for _, c := range children {
		i := sort.Search(len(ps), func(i int) bool { return ps[i].start > c.start }) - 1
		if i < 0 || c.end > ps[i].end {
			orphans++
			continue
		}
		kids[i] = append(kids[i], c)
	}
	return kids, orphans
}
