package core

import (
	"math/rand"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/graph"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 4); err == nil {
		t.Error("accepted m = -1")
	}
	if _, err := New(2, 2); err == nil {
		t.Error("accepted n = 2")
	}
	hb, err := New(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Order() != 24 || hb.Degree() != 4 {
		t.Errorf("HB(0,3): order %d degree %d", hb.Order(), hb.Degree())
	}
}

// Theorem 2 counts, Remark 3 generator action, the Theorem 3 diameter
// and Remark 8 distance-vs-BFS agreement are asserted by the
// conformance suite in conformance_test.go; the Order formula itself is
// pure arithmetic and stays here.
func TestTheorem2OrderFormula(t *testing.T) {
	for m := 0; m <= 3; m++ {
		for n := 3; n <= 5; n++ {
			hb := MustNew(m, n)
			if hb.Order() != n<<uint(m+n) {
				t.Fatalf("HB(%d,%d): order %d, want %d", m, n, hb.Order(), n<<uint(m+n))
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	hb := MustNew(3, 4)
	for v := 0; v < hb.Order(); v++ {
		h, b := hb.Decode(v)
		if hb.Encode(h, b) != v {
			t.Fatalf("round trip failed at %d", v)
		}
	}
}

func TestEncodePanics(t *testing.T) {
	hb := MustNew(2, 3)
	for _, bad := range [][2]int{{4, 0}, {-1, 0}, {0, 24}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			hb.Encode(bad[0], bad[1])
		}()
	}
}

func TestMovesMatchNeighbors(t *testing.T) {
	hb := MustNew(2, 3)
	moves := hb.Moves()
	if len(moves) != 6 {
		t.Fatalf("Moves: %v", moves)
	}
	var buf []int
	for v := 0; v < hb.Order(); v++ {
		buf = hb.AppendNeighbors(v, buf[:0])
		for k, mv := range moves {
			if hb.Apply(mv, v) != buf[k] {
				t.Fatalf("move %v disagrees with neighbor %d of %d", mv, k, v)
			}
			// Closure under inverse (Remark 3).
			if hb.Apply(mv.Inverse(), hb.Apply(mv, v)) != v {
				t.Fatalf("inverse of %v failed at %d", mv, v)
			}
		}
	}
}

func TestMoveString(t *testing.T) {
	if got := (Move{Cube: true, Index: 2}).String(); got != "h2" {
		t.Errorf("cube move = %q", got)
	}
	if got := (Move{Index: butterfly.GenFInv}).String(); got != "f-1" {
		t.Errorf("butterfly move = %q", got)
	}
}

// TestMoveBetweenNamesRouteHops: naming each AppendRoute hop with
// MoveBetween reproduces RouteMoves move for move, AppendName renders
// exactly what String does, and non-edges report false.
func TestMoveBetweenNamesRouteHops(t *testing.T) {
	for _, mv := range MustNew(4, 3).Moves() {
		if got := string(mv.AppendName([]byte("x"))); got != "x"+mv.String() {
			t.Errorf("AppendName(%v) = %q, want %q", mv, got, "x"+mv.String())
		}
	}
	if got := (Move{Cube: true, Index: 12}).String(); got != "h12" {
		t.Errorf("two-digit cube move = %q", got)
	}
	rng := rand.New(rand.NewSource(7))
	for _, d := range [][2]int{{0, 3}, {2, 3}, {3, 5}, {4, 4}} {
		var top Topology = MustNew(d[0], d[1])
		if d[0] == 3 {
			top = MustNewImplicit(d[0], d[1])
		}
		var path []Node
		for trial := 0; trial < 500; trial++ {
			u, v := rng.Intn(top.Order()), rng.Intn(top.Order())
			moves := top.RouteMoves(u, v)
			path = top.AppendRoute(u, v, path[:0])
			if len(path) != len(moves)+1 {
				t.Fatalf("HB(%d,%d) %d->%d: %d hops, %d moves", d[0], d[1], u, v, len(path)-1, len(moves))
			}
			for i, want := range moves {
				got, ok := top.MoveBetween(path[i], path[i+1])
				if !ok || got != want {
					t.Fatalf("HB(%d,%d) %d->%d hop %d: MoveBetween = %v,%v, want %v", d[0], d[1], u, v, i, got, ok, want)
				}
			}
			if w := rng.Intn(top.Order()); top.Distance(u, w) != 1 {
				if mv, ok := top.MoveBetween(u, w); ok {
					t.Fatalf("HB(%d,%d) non-edge %d-%d named %v", d[0], d[1], u, w, mv)
				}
			}
		}
	}
	hb := MustNew(3, 8)
	path := hb.AppendRoute(5, hb.Order()-3, nil)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for i := 1; i < len(path); i++ {
			mv, _ := hb.MoveBetween(path[i-1], path[i])
			buf = mv.AppendName(buf)
		}
	}); n != 0 {
		t.Errorf("naming a route allocates %v times, want 0", n)
	}
}

// TestRemark6Routing (claim R6) checks exhaustively that the two-phase
// route realises the shortest-path distance and is a valid path. The
// HB(2,3) instance always runs; HB(3,3) rides along unless -short.
func TestRemark6Routing(t *testing.T) {
	sizes := []struct {
		m, n   int
		stride int
	}{
		{2, 3, 3},
	}
	if !testing.Short() {
		sizes = append(sizes, struct{ m, n, stride int }{3, 3, 1})
	}
	for _, sz := range sizes {
		hb := MustNew(sz.m, sz.n)
		for u := 0; u < hb.Order(); u += sz.stride {
			dist := graph.BFS(hb, u, nil)
			for v := 0; v < hb.Order(); v++ {
				p := hb.Route(u, v)
				if len(p)-1 != int(dist[v]) {
					t.Fatalf("HB(%d,%d): route %d->%d length %d, BFS distance %d",
						sz.m, sz.n, u, v, len(p)-1, dist[v])
				}
				if err := graph.VerifyPath(hb, p); err != nil && u != v {
					t.Fatalf("HB(%d,%d): route %d->%d: %v", sz.m, sz.n, u, v, err)
				}
			}
		}
	}
}

func TestRouteMovesRandomLarge(t *testing.T) {
	hb := MustNew(4, 6)
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 2000; trial++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		moves := hb.RouteMoves(u, v)
		if len(moves) != hb.Distance(u, v) {
			t.Fatalf("moves %d, distance %d", len(moves), hb.Distance(u, v))
		}
		cur := u
		for _, mv := range moves {
			cur = hb.Apply(mv, cur)
		}
		if cur != v {
			t.Fatalf("moves from %d ended at %d, want %d", u, cur, v)
		}
	}
}

// TestTheorem3PaperFormula: for even n the measured formula m+⌊3n/2⌋
// agrees with Theorem 3's printed m+⌈3n/2⌉ (the BFS ground truth is
// asserted by the conformance suite's diameter invariant).
func TestTheorem3PaperFormula(t *testing.T) {
	for m := 0; m <= 4; m++ {
		for n := 4; n <= 8; n += 2 {
			hb := MustNew(m, n)
			if hb.DiameterFormula() != hb.DiameterFormulaPaper() {
				t.Fatalf("HB(%d,%d): formulas disagree for even n: %d vs %d",
					m, n, hb.DiameterFormula(), hb.DiameterFormulaPaper())
			}
		}
	}
}

// TestVertexTransitivity spot-checks Remark 7: the distance histogram
// from several sources is identical.
func TestVertexTransitivity(t *testing.T) {
	hb := MustNew(2, 4)
	ref := histogram(graph.BFS(hb, 0, nil))
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 10; trial++ {
		src := rng.Intn(hb.Order())
		got := histogram(graph.BFS(hb, src, nil))
		if len(got) != len(ref) {
			t.Fatalf("histogram lengths differ from %d", src)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("histogram differs from source %d at distance %d", src, i)
			}
		}
	}
}

func histogram(dist []int32) []int {
	var h []int
	for _, d := range dist {
		for int(d) >= len(h) {
			h = append(h, 0)
		}
		h[d]++
	}
	return h
}

// TestRemark5Decomposition verifies the two partitions.
func TestRemark5Decomposition(t *testing.T) {
	hb := MustNew(2, 3)
	seen := make([]bool, hb.Order())
	parts := hb.HypercubePartition()
	if len(parts) != hb.Butterfly().Order() {
		t.Fatalf("%d sub-hypercubes", len(parts))
	}
	for b, part := range parts {
		if len(part) != 4 {
			t.Fatalf("sub-hypercube %d has %d nodes", b, len(part))
		}
		for h, v := range part {
			if seen[v] {
				t.Fatalf("node %d in two sub-hypercubes", v)
			}
			seen[v] = true
			gh, gb := hb.Decode(v)
			if gh != h || gb != b {
				t.Fatalf("sub-hypercube indexing wrong at (%d,%d)", h, b)
			}
		}
		// The part really is an H_m: all pairs at Hamming distance 1 adjacent.
		d := graph.Build(hb)
		for _, x := range part {
			deg := 0
			for _, y := range part {
				if x != y && d.HasEdge(x, y) {
					deg++
				}
			}
			if deg != hb.M() {
				t.Fatalf("sub-hypercube node %d has %d intra-part edges", x, deg)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d missing from partition", v)
		}
	}

	bparts := hb.ButterflyPartition()
	if len(bparts) != 4 {
		t.Fatalf("%d sub-butterflies", len(bparts))
	}
	seen = make([]bool, hb.Order())
	for _, part := range bparts {
		if len(part) != hb.Butterfly().Order() {
			t.Fatalf("sub-butterfly size %d", len(part))
		}
		for _, v := range part {
			if seen[v] {
				t.Fatalf("node %d in two sub-butterflies", v)
			}
			seen[v] = true
		}
	}
}

func TestVertexLabel(t *testing.T) {
	hb := MustNew(3, 3)
	if got := hb.VertexLabel(hb.Identity()); got != "(000; t1 t2 t3)" {
		t.Errorf("identity label = %q", got)
	}
	v := hb.Apply(Move{Cube: true, Index: 2}, hb.Identity())
	if got := hb.VertexLabel(v); got != "(100; t1 t2 t3)" {
		t.Errorf("h2 label = %q", got)
	}
}
