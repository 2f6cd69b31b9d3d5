package core

import (
	"slices"
	"testing"
)

// TestDistanceHistogramMatchesAllSources holds the product-structure
// histogram to a bit-parallel all-sources sweep over the materialised
// graph on every dims of at most 2^12 nodes, and checks that every
// eccentricity there is the histogram's depth, as vertex transitivity
// predicts. Both backends answer.
func TestDistanceHistogramMatchesAllSources(t *testing.T) {
	dims := 0
	for n := 3; n <= 8; n++ {
		for m := 0; MustNew(m, n).Order() <= 1<<12; m++ {
			dims++
			hb := MustNew(m, n)
			sweep := hb.Dense().AllSourcesBits(nil, 0)
			if !sweep.Complete {
				t.Fatalf("HB(%d,%d): sweep incomplete", m, n)
			}
			hist := hb.DistanceHistogram()
			if !slices.Equal(hist, sweep.Hist) {
				t.Fatalf("HB(%d,%d): histogram %v, all-sources sweep %v", m, n, hist, sweep.Hist)
			}
			if got := ImplicitOf(hb).DistanceHistogram(); !slices.Equal(got, hist) {
				t.Fatalf("HB(%d,%d): implicit histogram %v, dense %v", m, n, got, hist)
			}
			for v, e := range sweep.Ecc {
				if int(e) != len(hist)-1 {
					t.Fatalf("HB(%d,%d): ecc(%d) = %d, histogram depth %d", m, n, v, e, len(hist)-1)
				}
			}
			if len(hist)-1 != hb.DiameterFormula() {
				t.Errorf("HB(%d,%d): histogram depth %d, diameter formula %d", m, n, len(hist)-1, hb.DiameterFormula())
			}
		}
	}
	if dims != 29 {
		t.Errorf("swept %d dims, want the 29 of at most 2^12 nodes", dims)
	}
}

// TestDistanceHistogramGiant: HB(10,10) (~10.5M nodes) answers from
// the B_10 search alone, with Order² ordered pairs and depth 25.
func TestDistanceHistogramGiant(t *testing.T) {
	hb := MustNewImplicit(10, 10)
	hist := hb.DistanceHistogram()
	if len(hist)-1 != 25 {
		t.Errorf("HB(10,10) histogram depth %d, want 25", len(hist)-1)
	}
	var sum int64
	for _, c := range hist {
		sum += c
	}
	order := int64(hb.Order())
	if sum != order*order || hist[0] != order || hist[1] != order*int64(hb.Degree()) {
		t.Errorf("HB(10,10): hist %v sums to %d, want order² = %d", hist, sum, order*order)
	}
}
