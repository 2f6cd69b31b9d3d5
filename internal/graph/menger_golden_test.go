package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// flowPathsDigest is the SHA-256 of every path set
// TestFlowScratchDisjointPathsGolden extracts, recorded before the Dinic
// BFS stopped at the sink's level and NewDense moved to slices.Sort.
// Both changes are pure speedups: the paths must stay identical, not
// merely valid.
const flowPathsDigest = "c20f3ad1531988a00a721f59ef2f19baeb61318c3841340ceffae5fcbac1881b"

// TestFlowScratchDisjointPathsGolden hashes FlowScratch.DisjointPaths
// on seeded randomDense graphs, from sparse to dense and with and
// without degeneracies, for unbounded and limit-capped extractions.
func TestFlowScratchDisjointPathsGolden(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		degenerate bool
	}{
		{8, 0.4, false},
		{20, 0.25, true},
		{40, 0.15, false},
		{64, 0.08, true},
		{128, 0.05, false},
		{200, 0.03, true},
	}
	h := sha256.New()
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		d := randomDense(rng, c.n, c.p, c.degenerate)
		fs := NewFlowScratch(d)
		for trial := 0; trial < 60; trial++ {
			s, u := rng.Intn(c.n), rng.Intn(c.n-1)
			if u >= s {
				u++
			}
			limit := -1
			if trial%3 == 1 {
				limit = 1 + rng.Intn(3)
			}
			paths, err := fs.DisjointPaths(s, u, limit)
			if err != nil {
				t.Fatalf("case %d: DisjointPaths(%d,%d,%d): %v", ci, s, u, limit, err)
			}
			if err := VerifyDisjointPaths(d, s, u, paths); err != nil {
				t.Fatalf("case %d: DisjointPaths(%d,%d,%d): %v", ci, s, u, limit, err)
			}
			fmt.Fprintf(h, "%d %d %d %d %v\n", ci, s, u, limit, paths)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != flowPathsDigest {
		t.Errorf("FlowScratch.DisjointPaths digest %s, want %s", got, flowPathsDigest)
	}
}
