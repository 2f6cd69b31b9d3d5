package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzImplicitRoute drives the implicit router with arbitrary (m, n,
// src, dst) labels: after clamping into valid ranges, the emitted route
// must be a walk from src to dst of exactly Distance(src,dst) steps in
// which every hop is one of the implicit neighbors of its predecessor —
// i.e. shortestness and validity certified by label arithmetic alone.
func FuzzImplicitRoute(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint64(0), uint64(95))
	f.Add(uint8(0), uint8(4), uint64(17), uint64(3))
	f.Add(uint8(3), uint8(5), uint64(1<<20), uint64(42))
	f.Add(uint8(1), uint8(6), uint64(7), uint64(7))
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint8, srcRaw, dstRaw uint64) {
		m := int(mRaw % 5)   // 0..4
		n := 3 + int(nRaw%4) // 3..6
		imp, err := core.NewImplicit(m, n)
		if err != nil {
			t.Fatalf("NewImplicit(%d,%d): %v", m, n, err)
		}
		order := uint64(imp.Order())
		u := core.Node(srcRaw % order)
		v := core.Node(dstRaw % order)

		dist := imp.Distance(u, v)
		if back := imp.Distance(v, u); back != dist {
			t.Fatalf("HB(%d,%d): Distance(%d,%d)=%d but Distance(%d,%d)=%d",
				m, n, u, v, dist, v, u, back)
		}
		if diam := imp.DiameterFormula(); dist < 0 || dist > diam {
			t.Fatalf("HB(%d,%d): Distance(%d,%d)=%d outside [0,%d]", m, n, u, v, dist, diam)
		}

		route := imp.AppendRoute(u, v, nil)
		if len(route) != dist+1 {
			t.Fatalf("HB(%d,%d): route %d..%d has %d vertices, Distance says %d steps",
				m, n, u, v, len(route), dist)
		}
		if route[0] != u || route[len(route)-1] != v {
			t.Fatalf("HB(%d,%d): route runs %d..%d, want %d..%d",
				m, n, route[0], route[len(route)-1], u, v)
		}
		var nbuf []int
		for i := 1; i < len(route); i++ {
			if !imp.ValidNode(route[i]) {
				t.Fatalf("HB(%d,%d): route emits invalid label %d", m, n, route[i])
			}
			nbuf = imp.AppendNeighbors(route[i-1], nbuf[:0])
			ok := false
			for _, w := range nbuf {
				if w == route[i] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("HB(%d,%d): route step %d-%d is not an implicit edge",
					m, n, route[i-1], route[i])
			}
		}
	})
}

// FuzzImplicitDisjointPaths drives the implicit Theorem 5 construction
// with arbitrary (m, n, u, v) labels on small instances: after clamping,
// the answer must hold exactly m+4 paths, pass VerifyDisjointPaths on
// the dense adjacency, and match the dense Menger local connectivity —
// so every case, and above all the case-3 window, is certified maximal
// against an independent whole-graph max-flow.
func FuzzImplicitDisjointPaths(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint64(0), uint64(95))    // case 3
	f.Add(uint8(1), uint8(4), uint64(5), uint64(5+64))  // case 1: same butterfly label
	f.Add(uint8(3), uint8(3), uint64(24), uint64(30))   // case 2: same cube label
	f.Add(uint8(0), uint8(5), uint64(17), uint64(1<<9)) // m = 0
	f.Add(uint8(1), uint8(3), uint64(7), uint64(7))     // u = v
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint8, uRaw, vRaw uint64) {
		m := int(mRaw % 4)   // 0..3
		n := 3 + int(nRaw%3) // 3..5
		imp, err := core.NewImplicit(m, n)
		if err != nil {
			t.Fatalf("NewImplicit(%d,%d): %v", m, n, err)
		}
		order := uint64(imp.Order())
		u, v := core.Node(uRaw%order), core.Node(vRaw%order)
		paths, err := imp.DisjointPaths(u, v)
		if u == v {
			if err == nil {
				t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d) accepted equal endpoints", m, n, u, v)
			}
			return
		}
		if err != nil {
			t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d): %v", m, n, u, v, err)
		}
		if len(paths) != m+4 {
			t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d) gave %d paths, want %d", m, n, u, v, len(paths), m+4)
		}
		d := imp.Dense()
		if err := graph.VerifyDisjointPaths(d, u, v, paths); err != nil {
			t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d): %v", m, n, u, v, err)
		}
		if want := graph.LocalConnectivity(d, u, v); len(paths) != want {
			t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d) gave %d paths, dense LocalConnectivity %d",
				m, n, u, v, len(paths), want)
		}
	})
}
