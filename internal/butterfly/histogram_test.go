package butterfly

import (
	"sync"
	"testing"
)

// TestHistogramDiameterTheorem3 checks Theorem 3's butterfly factor at
// every dimension the daemon can serve: the identity-rooted search
// ends at depth ⌊3n/2⌋ and reaches every node. n > 14 is skipped under
// -short (B_19 takes about a second).
func TestHistogramDiameterTheorem3(t *testing.T) {
	for n := 3; n <= 19; n++ {
		if testing.Short() && n > 14 {
			t.Skipf("n=%d..19 skipped in -short mode", n)
		}
		b := MustNew(n)
		hist := b.DistanceHistogram()
		if got := len(hist) - 1; got != 3*n/2 || got != b.DiameterFormula() {
			t.Errorf("n=%d: histogram depth %d, want ⌊3n/2⌋ = %d", n, got, 3*n/2)
		}
		var sum int64
		for _, c := range hist {
			sum += c
		}
		if sum != int64(b.Order()) || hist[0] != 1 || hist[1] != 4 {
			t.Errorf("n=%d: histogram %v sums to %d (order %d), want hist[0]=1 hist[1]=4", n, hist, sum, b.Order())
		}
	}
}

// TestHistogramMatchesAnalyticDistance holds the search to an
// independent scan of the analytic covering-walk distance.
func TestHistogramMatchesAnalyticDistance(t *testing.T) {
	for n := 3; n <= 12; n++ {
		b := MustNew(n)
		want := make([]int64, b.DiameterFormula()+1)
		for v := 0; v < b.Order(); v++ {
			want[b.Distance(b.Identity(), v)]++
		}
		got := b.DistanceHistogram()
		if len(got) != len(want) {
			t.Fatalf("n=%d: histogram %v, analytic scan %v", n, got, want)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("n=%d: histogram %v, analytic scan %v", n, got, want)
			}
		}
	}
}

// TestHistogramCachedAndCopied: concurrent first callers on distinct
// *Butterfly values of one n share one computation, and a caller
// mutating its copy does not reach the cache.
func TestHistogramCachedAndCopied(t *testing.T) {
	const n = 9
	var wg sync.WaitGroup
	got := make([][]int64, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = MustNew(n).DistanceHistogram()
		}(i)
	}
	wg.Wait()
	for i := range got {
		for d := range got[0] {
			if got[i][d] != got[0][d] {
				t.Fatalf("caller %d got %v, caller 0 got %v", i, got[i], got[0])
			}
		}
	}
	got[0][0] = -1
	if MustNew(n).DistanceHistogram()[0] != 1 {
		t.Fatal("mutating a returned histogram changed the cached one")
	}
}
