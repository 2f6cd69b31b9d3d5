package butterfly

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// disjointPathsDigest is the SHA-256 of every path set
// TestDisjointPathsGolden extracts, recorded before DisjointPaths moved
// onto a pooled flow arena and the Dinic BFS learned to stop at the
// sink's level. Both are pure speedups: the paths must stay identical,
// not merely valid.
const disjointPathsDigest = "99886c7c020c214dcda8481778993b97a620053f1932b25b4c6903999c2a2ec9"

// TestDisjointPathsGolden hashes DisjointPaths over all ordered pairs
// of B_3 and B_4 plus 2,000 seeded pairs of B_8, each answer checked
// with graph.VerifyDisjointPaths on the way.
func TestDisjointPathsGolden(t *testing.T) {
	h := sha256.New()
	record := func(b *Butterfly, u, v Node) {
		paths, err := b.DisjointPaths(u, v)
		if err != nil {
			t.Fatalf("B_%d: DisjointPaths(%d,%d): %v", b.Dim(), u, v, err)
		}
		if err := graph.VerifyDisjointPaths(b, u, v, paths); err != nil {
			t.Fatalf("B_%d: DisjointPaths(%d,%d): %v", b.Dim(), u, v, err)
		}
		fmt.Fprintf(h, "%d %d %d %v\n", b.Dim(), u, v, paths)
	}
	for _, n := range []int{3, 4} {
		b := MustNew(n)
		for u := 0; u < b.Order(); u++ {
			for v := 0; v < b.Order(); v++ {
				if u != v {
					record(b, u, v)
				}
			}
		}
	}
	b := MustNew(8)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		u, v := rng.Intn(b.Order()), rng.Intn(b.Order()-1)
		if v >= u {
			v++
		}
		record(b, u, v)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != disjointPathsDigest {
		t.Errorf("DisjointPaths digest %s, want %s", got, disjointPathsDigest)
	}
}

// TestDisjointPathsConcurrent calls DisjointPaths on one Butterfly from
// 8 goroutines (run it under -race): the pooled flow arenas must never
// be shared between in-flight calls, so every goroutine sees the
// serial answer.
func TestDisjointPathsConcurrent(t *testing.T) {
	b := MustNew(6)
	type pair struct{ u, v Node }
	rng := rand.New(rand.NewSource(6))
	pairs := make([]pair, 64)
	want := make([]string, len(pairs))
	for i := range pairs {
		u, v := rng.Intn(b.Order()), rng.Intn(b.Order()-1)
		if v >= u {
			v++
		}
		pairs[i] = pair{u, v}
		paths, err := b.DisjointPaths(u, v)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(paths)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pairs {
				i := (k + 7*g) % len(pairs)
				paths, err := b.DisjointPaths(pairs[i].u, pairs[i].v)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(paths); got != want[i] {
					t.Errorf("goroutine %d pair %v: %s, want %s", g, pairs[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// sinkPaths keeps BenchmarkDisjointPaths' result live.
var sinkPaths [][]Node

// BenchmarkDisjointPaths extracts the 4 factor paths of B_10 — the
// per-answer cost every HB(m,10) case-2 and case-3 /paths pays — over
// a fixed cycle of seeded pairs, with the adjacency built beforehand.
func BenchmarkDisjointPaths(b *testing.B) {
	bf := MustNew(10)
	bf.Dense()
	rng := rand.New(rand.NewSource(10))
	pairs := make([][2]Node, 64)
	for i := range pairs {
		u, v := rng.Intn(bf.Order()), rng.Intn(bf.Order()-1)
		if v >= u {
			v++
		}
		pairs[i] = [2]Node{u, v}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		paths, err := bf.DisjointPaths(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		sinkPaths = paths
	}
}
