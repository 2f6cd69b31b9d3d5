package butterfly

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// denseCache holds the materialised adjacency of b for the flow-based
// algorithms, built at most once, and a pool of flow arenas over it so
// DisjointPaths builds its node-split network once per concurrent
// caller rather than once per call.
type denseCache struct {
	once  sync.Once
	d     *graph.Dense
	flows sync.Pool // *graph.FlowScratch over d
}

var denseCaches sync.Map // *Butterfly -> *denseCache

func (b *Butterfly) cache() *denseCache {
	ci, _ := denseCaches.LoadOrStore(b, &denseCache{})
	c := ci.(*denseCache)
	c.once.Do(func() {
		c.d = graph.Build(b)
		c.flows.New = func() any { return graph.NewFlowScratch(c.d) }
	})
	return c
}

// Dense returns the materialised adjacency of b, building and caching it
// on first use. Safe for concurrent use.
func (b *Butterfly) Dense() *graph.Dense { return b.cache().d }

// DisjointPaths returns 4 pairwise internally vertex-disjoint paths from
// u to v (u != v), the maximum possible since B_n is 4-regular with
// vertex connectivity 4 (Remark 1). The paths are extracted from a
// unit-capacity max-flow (Menger), so the count is exact by
// construction; the paper's Theorem 5 composes these with hypercube
// disjoint paths to reach connectivity m+4 in HB(m,n). Safe for
// concurrent use: each call borrows a pooled flow arena.
func (b *Butterfly) DisjointPaths(u, v Node) ([][]Node, error) {
	if u == v {
		return nil, fmt.Errorf("butterfly: DisjointPaths endpoints equal (%d)", u)
	}
	if u < 0 || u >= b.size || v < 0 || v >= b.size {
		return nil, fmt.Errorf("butterfly: endpoints %d,%d out of range [0,%d)", u, v, b.size)
	}
	c := b.cache()
	fs := c.flows.Get().(*graph.FlowScratch)
	paths, err := fs.DisjointPaths(u, v, 4)
	c.flows.Put(fs)
	if err != nil {
		return nil, fmt.Errorf("butterfly: %w", err)
	}
	if len(paths) != 4 {
		return nil, fmt.Errorf("butterfly: found %d disjoint paths between %d and %d, want 4", len(paths), u, v)
	}
	return paths, nil
}
