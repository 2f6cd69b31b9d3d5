package butterfly

import (
	"slices"
	"sync"
)

// histCache holds the identity-rooted distance histogram of B_n,
// computed at most once per n.
type histCache struct {
	once sync.Once
	hist []int64
}

var histCaches sync.Map // n -> *histCache

// DistanceHistogram returns hist, where hist[d] counts the nodes at
// distance d from the identity. B_n is a Cayley graph, so every node
// has this single-source histogram: it sums to Order, and len(hist)-1
// is both the diameter and every node's eccentricity. It is computed
// once per n by a breadth-first search over Apply (no adjacency is
// built) and shared by every *Butterfly of that dimension; each caller
// gets its own copy. Safe for concurrent use.
func (b *Butterfly) DistanceHistogram() []int64 {
	ci, _ := histCaches.LoadOrStore(b.n, &histCache{})
	c := ci.(*histCache)
	c.once.Do(func() { c.hist = b.bfsHistogram() })
	return slices.Clone(c.hist)
}

// bfsHistogram runs the level-synchronous search from the identity
// over a visited bitset, holding only two frontiers besides it.
func (b *Butterfly) bfsHistogram() []int64 {
	id := b.Identity()
	seen := make([]uint64, (b.size+63)/64)
	seen[id>>6] = 1 << (id & 63)
	frontier := []int32{int32(id)}
	var next []int32
	var hist []int64
	for len(frontier) > 0 {
		hist = append(hist, int64(len(frontier)))
		next = next[:0]
		for _, u := range frontier {
			for gen := 0; gen < NumGens; gen++ {
				v := b.Apply(gen, int(u))
				if bit := uint64(1) << (v & 63); seen[v>>6]&bit == 0 {
					seen[v>>6] |= bit
					next = append(next, int32(v))
				}
			}
		}
		frontier, next = next, frontier
	}
	return hist
}
