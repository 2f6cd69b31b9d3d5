package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/hbserve"
)

// Request generation. Everything a workload sends is built here from
// the seed alone, before any measured window opens: the same seed gives
// a byte-identical stream (TestStreamDeterministic).

// dims names one HB(m,n) instance.
type dims struct{ M, N int }

func (d dims) String() string { return fmt.Sprintf("HB(%d,%d)", d.M, d.N) }

var (
	// denseHB sits on the daemon pool's dense tier (16384 nodes).
	denseHB = dims{3, 8}
	// implicitHB sits on the implicit tier (10485760 nodes).
	implicitHB = dims{10, 10}
	// servedHB are the two instances the single-query workloads split
	// their traffic between.
	servedHB = []dims{denseHB, implicitHB}
)

// op is the kind of one request.
type op uint8

const (
	opRoute op = iota
	opFaultRoute
	opPaths
	opBatch
	numOps
)

var opNames = [numOps]string{"route", "faultroute", "paths", "batch"}

// request is one prebuilt request of a stream.
type request struct {
	op     op
	inst   dims
	u, v   int    // single-query endpoints
	fset   int    // faultroute: index into the instance's fault family
	target string // request URI (path and query)
	body   []byte // batch: binary-codec POST body
	src    []int  // batch: the pair columns the body carries
	dst    []int
}

// pairs is how many answered pairs the request counts for.
func (r *request) pairs() int {
	if r.op == opBatch {
		return len(r.src)
	}
	return 1
}

// stream is a workload's whole request sequence. first holds the few
// requests that set-up sends to trigger every lazy first use; reqs is
// replayed in order from position 0, wrapping around, and its first
// warm requests are warm-up traffic that no metric counts.
type stream struct {
	first  []request
	reqs   []request
	warm   int
	faults map[dims][][]int // faultroute: fault family per instance
}

// at returns the request at position i of the endless replay.
func (s *stream) at(i int64) (int, *request) {
	k := int(i % int64(len(s.reqs)))
	return k, &s.reqs[k]
}

// request resolves a sample's stream index (see sample.k).
func (s *stream) request(k int32) *request {
	if k < 0 {
		return &s.first[-k-1]
	}
	return &s.reqs[k]
}

// faultsOf returns the fault set r carries, nil for other ops.
func (s *stream) faultsOf(r *request) []int {
	if r.op != opFaultRoute {
		return nil
	}
	return s.faults[r.inst][r.fset]
}

// Stream sizes and skews. The route-mix Zipf exponent puts the daemon's
// default 4096-entry route cache near half hits at the parent commit,
// and the paths-skew hot share puts it at two thirds (cache.hit_ratio).
const (
	routeMixLen      = 1 << 17
	routeMixWarm     = 1 << 14
	routeUniverse    = 1 << 19 // pairs per instance
	routeZipfS       = 1.01
	faultShare       = 0.05
	faultSets        = 4  // fault family size per instance
	faultQueries     = 48 // queries per fault set
	faultRotateEvery = 16 // faultroute requests per instance before the set changes

	pathsLen   = 1 << 15
	pathsHot   = 128     // hot pairs per instance
	pathsZipfS = 1.1     // popularity within the hot set
	pathsShare = 2.0 / 3 // share of requests that ask for a hot pair

	batchBodies = 2048
	batchPairs  = 1024
	batchWarm   = 512 // warm-up batches
)

// randomPair draws u != v uniformly.
func randomPair(rng *rand.Rand, order int) (int, int) {
	for {
		u, v := rng.Intn(order), rng.Intn(order)
		if u != v {
			return u, v
		}
	}
}

// zipfPairs is a universe of random pairs drawn by Zipf rank, so a few
// pairs are hot and most are cold.
type zipfPairs struct {
	pairs [][2]int
	z     *rand.Zipf
}

func newZipfPairs(rng *rand.Rand, order, universe int, s float64) *zipfPairs {
	zp := &zipfPairs{pairs: make([][2]int, universe)}
	for i := range zp.pairs {
		u, v := randomPair(rng, order)
		zp.pairs[i] = [2]int{u, v}
	}
	zp.z = rand.NewZipf(rng, s, 1, uint64(universe-1))
	return zp
}

func (zp *zipfPairs) next() (int, int) {
	p := zp.pairs[zp.z.Uint64()]
	return p[0], p[1]
}

// order returns the node count of d.
func (d dims) order() int { return (1 << d.M) * d.N * (1 << d.N) }

// faultFamily builds sets fault sets of exactly m+3 nodes on hb, the
// most Remark 10 guarantees routing around, and for each set the
// queries whose endpoints avoid it. Each fault lies on the optimal
// route of one of the set's first queries, so those queries need a
// detour and exercise the greedy and disjoint-path strategies.
func faultFamily(rng *rand.Rand, hb *core.HyperButterfly, sets, queries int) ([][]int, [][][2]int) {
	family := make([][]int, sets)
	pairs := make([][][2]int, sets)
	order := hb.Order()
	for s := 0; s < sets; s++ {
		faulty := map[int]bool{}
		var seeds [][2]int
		for len(faulty) < hb.M()+3 {
			u, v := randomPair(rng, order)
			path := hb.Route(u, v)
			if len(path) < 3 {
				continue
			}
			f := path[1+rng.Intn(len(path)-2)]
			if faulty[f] {
				continue
			}
			faulty[f] = true
			seeds = append(seeds, [2]int{u, v})
		}
		for f := range faulty {
			family[s] = append(family[s], f)
		}
		sort.Ints(family[s])
		for _, p := range seeds {
			if !faulty[p[0]] && !faulty[p[1]] {
				pairs[s] = append(pairs[s], p)
			}
		}
		for len(pairs[s]) < queries {
			u, v := randomPair(rng, order)
			if !faulty[u] && !faulty[v] {
				pairs[s] = append(pairs[s], [2]int{u, v})
			}
		}
	}
	return family, pairs
}

func singleTarget(o op, d dims, u, v int, faults []int) string {
	b := make([]byte, 0, 64+8*len(faults))
	b = append(b, '/')
	b = append(b, opNames[o]...)
	b = append(b, "?m="...)
	b = strconv.AppendInt(b, int64(d.M), 10)
	b = append(b, "&n="...)
	b = strconv.AppendInt(b, int64(d.N), 10)
	b = append(b, "&u="...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, "&v="...)
	b = strconv.AppendInt(b, int64(v), 10)
	if o == opFaultRoute {
		b = append(b, "&faults="...)
		for i, f := range faults {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(f), 10)
		}
	}
	return string(b)
}

// newRouteMix is the route-mix stream: single-query GETs, about 95%
// /route and 5% /faultroute, split evenly between the two served
// instances. Route pairs are Zipf-drawn; faultroute requests walk each
// instance's fault family, switching sets every faultRotateEvery
// requests, so most reuse the daemon's incremental router state and
// some rewrite it.
func newRouteMix(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{reqs: make([]request, routeMixLen), warm: routeMixWarm, faults: map[dims][][]int{}}
	zipf := make([]*zipfPairs, len(servedHB))
	fpairs := make([][][][2]int, len(servedHB))
	faultCount := make([]int, len(servedHB))
	for i, d := range servedHB {
		zipf[i] = newZipfPairs(rng, d.order(), routeUniverse, routeZipfS)
		s.faults[d], fpairs[i] = faultFamily(rng, core.MustNew(d.M, d.N), faultSets, faultQueries)
		u, v := randomPair(rng, d.order())
		s.first = append(s.first, request{op: opRoute, inst: d, u: u, v: v, target: singleTarget(opRoute, d, u, v, nil)})
		for set, ps := range fpairs[i] {
			p := ps[0]
			s.first = append(s.first, request{op: opFaultRoute, inst: d, u: p[0], v: p[1], fset: set,
				target: singleTarget(opFaultRoute, d, p[0], p[1], s.faults[d][set])})
		}
	}
	for k := range s.reqs {
		i := rng.Intn(len(servedHB))
		d := servedHB[i]
		r := &s.reqs[k]
		r.inst = d
		if rng.Float64() < faultShare {
			set := (faultCount[i] / faultRotateEvery) % faultSets
			faultCount[i]++
			p := fpairs[i][set][rng.Intn(len(fpairs[i][set]))]
			r.op, r.u, r.v, r.fset = opFaultRoute, p[0], p[1], set
			r.target = singleTarget(opFaultRoute, d, r.u, r.v, s.faults[d][set])
			continue
		}
		r.op = opRoute
		r.u, r.v = zipf[i].next()
		r.target = singleTarget(opRoute, d, r.u, r.v, nil)
	}
	return s
}

// newPathsSkew is the paths-skew stream: single-query /paths GETs split
// evenly between the two served instances. Two thirds ask for a hot set
// of pathsHot pairs per instance, Zipf-drawn; the rest ask for a fresh
// random pair that never repeats, so the universe is far larger than the
// route cache. The warm-up asks for every hot pair once. The hit ratio
// is then two thirds from the first measured request on. A Zipf draw over
// one large universe never reaches that steady state within a run,
// because filling the 4096-entry cache with 10 ms misses takes about
// 40 s: its hit ratio climbed from 0.68 to 0.78 within one run, and
// climbed faster the faster the daemon answered.
func newPathsSkew(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{}
	hot := make([]*zipfPairs, len(servedHB))
	for i, d := range servedHB {
		hot[i] = newZipfPairs(rng, d.order(), pathsHot, pathsZipfS)
		hb := core.MustNew(d.M, d.N)
		for c := 1; c <= 3; c++ {
			u, v := casePair(rng, hb, c)
			s.first = append(s.first, request{op: opPaths, inst: d, u: u, v: v, target: singleTarget(opPaths, d, u, v, nil)})
		}
	}
	add := func(d dims, u, v int) {
		s.reqs = append(s.reqs, request{op: opPaths, inst: d, u: u, v: v, target: singleTarget(opPaths, d, u, v, nil)})
	}
	for i, d := range servedHB {
		for _, p := range hot[i].pairs {
			add(d, p[0], p[1])
		}
	}
	s.warm = len(s.reqs)
	for len(s.reqs) < pathsLen {
		i := rng.Intn(len(servedHB))
		d := servedHB[i]
		var u, v int
		if rng.Float64() < pathsShare {
			u, v = hot[i].next()
		} else {
			u, v = randomPair(rng, d.order())
		}
		add(d, u, v)
	}
	return s
}

// newBatchFleet is the batch-fleet stream: binary-codec /batch bodies
// of batchPairs uniform route pairs on HB(10,10), each body distinct.
// Batches above the daemon's 256-pair limit bypass the route cache.
func newBatchFleet(seed int64) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{reqs: make([]request, batchBodies), warm: batchWarm}
	order := implicitHB.order()
	for k := range s.reqs {
		r := &s.reqs[k]
		r.op, r.inst, r.target = opBatch, implicitHB, "/batch"
		r.src = make([]int, batchPairs)
		r.dst = make([]int, batchPairs)
		for i := range r.src {
			r.src[i], r.dst[i] = randomPair(rng, order)
		}
		body, err := hbserve.EncodeBatchBinRequest("route", implicitHB.M, implicitHB.N, nil, r.src, r.dst)
		if err != nil {
			return nil, err
		}
		r.body = body
	}
	s.first = s.reqs[:2]
	return s, nil
}

// casePair draws a pair for case c of the Theorem 5 construction:
// 1 shares the butterfly label, 2 shares the hypercube label, 3 shares
// neither.
func casePair(rng *rand.Rand, hb *core.HyperButterfly, c int) (int, int) {
	cube, bf := 1<<hb.M(), hb.Order()>>hb.M()
	for {
		u := rng.Intn(hb.Order())
		hu, bu := hb.Decode(u)
		h, b := rng.Intn(cube), rng.Intn(bf)
		switch c {
		case 1:
			b = bu
		case 2:
			h = hu
		}
		if (h == hu) == (c == 2) && (b == bu) == (c == 1) {
			return u, hb.Encode(h, b)
		}
	}
}
