package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/faultroute"
	"repro/internal/hbserve"
)

// Direct calls into single layers, on the inputs the workload sends.
// Each probe times a public call from outside and reports the layer's
// own cost, which the traced pass compares against handler spans.

// probeBudget bounds how long one repeated probe loop runs.
const probeBudget = 150 * time.Millisecond

// timeLoop runs f over n inputs until budget has passed and returns the
// mean nanoseconds per input.
func timeLoop(n int, budget time.Duration, f func(i int)) float64 {
	calls := 0
	start := time.Now()
	for {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
		if el := time.Since(start); el >= budget {
			return float64(el.Nanoseconds()) / float64(calls)
		}
	}
}

// servedTops returns the backends the daemon pool picks for the served
// instances: the dense-capable instance for HB(3,8), the implicit one
// for HB(10,10).
func servedTops() map[dims]core.Topology {
	return map[dims]core.Topology{
		denseHB:    core.MustNew(denseHB.M, denseHB.N),
		implicitHB: core.MustNewImplicit(implicitHB.M, implicitHB.N),
	}
}

// probePool times Pool.Get on fresh pools (a cold build of each served
// instance) and on a warm one.
func probePool(rep *report) error {
	const reps = 5
	var cold3, cold10 []float64
	for i := 0; i < reps; i++ {
		p := &hbserve.Pool{}
		for _, c := range []struct {
			d   dims
			out *[]float64
		}{{denseHB, &cold3}, {implicitHB, &cold10}} {
			t0 := time.Now()
			if _, err := p.Get(hbserve.Dims{M: c.d.M, N: c.d.N}); err != nil {
				return err
			}
			*c.out = append(*c.out, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	p := &hbserve.Pool{}
	key := hbserve.Dims{M: denseHB.M, N: denseHB.N}
	if _, err := p.Get(key); err != nil {
		return err
	}
	var err error
	warm := timeLoop(1024, probeBudget/3, func(int) {
		if _, e := p.Get(key); e != nil {
			err = e
		}
	})
	rep.set("pool.get_cold_us.hb3x8", median(cold3))
	rep.set("pool.get_cold_us.hb10x10", median(cold10))
	rep.set("pool.get_warm_ns", warm)
	return err
}

// probeRoutes times Route and AppendRoute on the workload's route pairs
// and returns Route's mean nanoseconds per call.
func probeRoutes(tops map[dims]core.Topology, reqs []request, rep *report) float64 {
	type pair struct {
		top  core.Topology
		u, v int
	}
	var ps []pair
	for i := range reqs {
		r := &reqs[i]
		switch r.op {
		case opRoute:
			ps = append(ps, pair{tops[r.inst], r.u, r.v})
		case opBatch:
			for j := range r.src {
				ps = append(ps, pair{tops[r.inst], r.src[j], r.dst[j]})
			}
		}
		if len(ps) >= 4096 {
			break
		}
	}
	sink := 0
	route := timeLoop(len(ps), probeBudget, func(i int) { sink += len(ps[i].top.Route(ps[i].u, ps[i].v)) })
	var buf []int
	appendRoute := timeLoop(len(ps), probeBudget, func(i int) {
		buf = ps[i].top.AppendRoute(ps[i].u, ps[i].v, buf[:0])
		sink += len(buf)
	})
	if sink < 0 {
		panic("unreachable") // keeps the timed calls live
	}
	rep.set("core.route_ns", route)
	rep.set("core.appendroute_ns", appendRoute)
	return route
}

// probePaths times DisjointPaths per Theorem 5 case. Pairs come from the
// stream, classified by Decode; cases the stream holds too few of are
// topped up with seeded pairs of that case.
func probePaths(tops map[dims]core.Topology, s *stream, seed int64, rep *report) error {
	const perCase = 6 // per instance and case; case 3 costs ~10 ms
	rng := rand.New(rand.NewSource(seed))
	for c := 1; c <= 3; c++ {
		var us []float64
		for _, d := range servedHB {
			top := tops[d]
			hb := core.MustNew(d.M, d.N)
			var ps [][2]int
			for i := range s.reqs {
				r := &s.reqs[i]
				if r.op == opPaths && r.inst == d && theoremCase(hb, r.u, r.v) == c && len(ps) < perCase {
					ps = append(ps, [2]int{r.u, r.v})
				}
			}
			for len(ps) < perCase {
				u, v := casePair(rng, hb, c)
				ps = append(ps, [2]int{u, v})
			}
			// The first call builds the lazy dense adjacency, which set-up
			// pays for in the daemon; time the calls after it.
			if _, err := top.DisjointPaths(ps[0][0], ps[0][1]); err != nil {
				return err
			}
			for _, p := range ps {
				t0 := time.Now()
				if _, err := top.DisjointPaths(p[0], p[1]); err != nil {
					return err
				}
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		rep.set("core.paths_us.case"+string(rune('0'+c)), median(us))
	}
	return nil
}

// theoremCase classifies u,v by the Theorem 5 case that serves it.
func theoremCase(hb *core.HyperButterfly, u, v int) int {
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	switch {
	case bu == bv:
		return 1
	case hu == hv:
		return 2
	}
	return 3
}

// probeRouteBatch times core.RouteBatch on the columns the workload
// sends, on one worker, and returns nanoseconds per pair.
func probeRouteBatch(s *stream, rep *report) (float64, error) {
	top := core.MustNewImplicit(implicitHB.M, implicitHB.N)
	var bs core.BatchScratch
	n := min(len(s.reqs), 64)
	var err error
	perBatch := timeLoop(n, probeBudget, func(i int) {
		r := &s.reqs[i]
		if e := core.RouteBatch(top, core.BatchRoute, r.src, r.dst, 1, &bs); e != nil {
			err = e
		}
	})
	ns := perBatch / float64(batchPairs)
	rep.set("core.routebatch_ns_per_pair", ns)
	return ns, err
}

// probeFaultRoute replays the stream's faultroute requests, in stream
// order, against one incremental router per instance, timing SetFaults
// and Route apart.
func probeFaultRoute(tops map[dims]core.Topology, s *stream, rep *report) error {
	routers := map[dims]*faultroute.Router{}
	for d, top := range tops {
		r, err := faultroute.New(top, nil)
		if err != nil {
			return err
		}
		routers[d] = r
	}
	var set, route time.Duration
	calls, greedy := 0, 0
	start := time.Now()
	for i := 0; time.Since(start) < probeBudget; i = (i + 1) % len(s.reqs) {
		r := &s.reqs[i]
		if r.op != opFaultRoute {
			continue
		}
		fr := routers[r.inst]
		t0 := time.Now()
		if err := fr.SetFaults(s.faultsOf(r)); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := fr.Route(r.u, r.v); err != nil {
			return err
		}
		set += t1.Sub(t0)
		route += time.Since(t1)
		calls++
		if fr.LastStrategy() == "greedy" {
			greedy++
		}
	}
	if calls > 0 {
		rep.set("faultroute.setfaults_us", float64(set.Nanoseconds())/1e3/float64(calls))
		rep.set("faultroute.route_us", float64(route.Nanoseconds())/1e3/float64(calls))
		rep.set("faultroute.greedy_share", float64(greedy)/float64(calls))
	}
	return nil
}
