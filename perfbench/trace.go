package main

import (
	"net/http"
	"time"
)

// The traced pass of a serving workload. Spans are recorded by the
// benchmark's own wrappers around the public handlers (client request,
// router handler, each daemon handler), kept in memory, and reduced to
// per-layer metrics at the end. The pass runs over one connection, so
// each router span's interval contains exactly its own replica spans.

// noLabel marks spans the traced pass ignores (health probes).
const noLabel = 255

// replicaLabel labels a replica's /batch spans by replica index.
func replicaLabel(idx int) func(*http.Request) uint8 {
	return func(r *http.Request) uint8 {
		if r.URL.Path != "/batch" {
			return noLabel
		}
		return uint8(idx)
	}
}

func usOf(ns float64) float64 { return ns / 1e3 }

func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur())
	}
	return out
}

func keep(spans []span, ok func(span) bool) []span {
	var out []span
	for _, s := range spans {
		if ok(s) {
			out = append(out, s)
		}
	}
	return out
}

// traceServing runs the traced pass: after set-up and warm-up, a
// quarter of the window untraced and a quarter traced over one
// connection (their difference is the tracing overhead), a quarter in
// the open loop to check the generator kept its schedule, and the rest
// in direct layer probes on the workload's own inputs.
func traceServing(w *serving, window time.Duration, rep *report, seed int64) error {
	b := newBench(w)
	defer b.close()
	if _, err := b.setup(); err != nil {
		return err
	}
	b.warmUp()
	quarter := window / 4

	un, ut := b.phase(phaseSpec{workers: 1, dur: quarter})

	c0 := b.f.counters()
	b.f.daemonSpans.on.Store(true)
	b.f.routerSpans.on.Store(true)
	tr, tt := b.phase(phaseSpec{workers: 1, dur: quarter})
	b.f.daemonSpans.on.Store(false)
	b.f.routerSpans.on.Store(false)
	c1 := b.f.counters()
	daemon := keep(b.f.daemonSpans.take(), func(s span) bool { return s.label != noLabel })
	router := b.f.routerSpans.take()

	open, ot := b.phase(phaseSpec{workers: genWorkers, dur: quarter, rate: w.rate})
	rep.acct.add(b.acct)

	// Tracing overhead and allocation cost, one connection each.
	up := float64(ut.okPairs) / un.cost.wall.Seconds()
	tp := float64(tt.okPairs) / tr.cost.wall.Seconds()
	rep.set("trace.untraced_pairs_per_s", up)
	rep.set("trace.pairs_per_s", tp)
	rep.set("trace.overhead_frac", 1-tp/up)
	rep.set("gc.cycles", float64(un.cost.gcs))
	rep.set("gc.pause_ms", float64(un.cost.pauseNs)/1e6)
	rep.set("heap.bytes_per_pair", float64(un.cost.bytes)/float64(max(ut.okPairs, 1)))

	// Generator honesty in the open loop.
	var lags []float64
	for _, wl := range open.logs {
		for _, s := range wl.samples {
			lags = append(lags, float64(s.start-s.due)/1e6)
		}
	}
	lag := summarize(lags)
	rep.set("gen.lag_p99_ms", lag.tail)
	rep.set("gen.p99_ms", summarize(ot.latencyMs).tail)
	rep.set("gen.samples", float64(len(ot.latencyMs)))
	rep.set("gen.tail_pct", lag.pct)
	rep.set("gen.conns", float64(b.f.front.peak.Load()))

	// Client round trip minus the front handler span: loopback, HTTP
	// framing and the client library.
	var client []span
	for _, s := range tr.logs[0].samples {
		if s.ok {
			client = append(client, span{start: s.start, end: s.end})
		}
	}
	front := daemon
	if w.router {
		front = router
	}
	kids, _ := nest(client, front)
	var wire []float64
	for i, k := range kids {
		if len(k) == 1 {
			wire = append(wire, float64(client[i].dur()-k[0].dur()))
		}
	}
	rep.set("client.wire_us", usOf(median(wire)))

	// Daemon handlers by endpoint; behind the router every daemon span
	// is a replica's /batch.
	var busy int64
	for _, s := range daemon {
		busy += s.dur()
	}
	rep.set("daemon.busy_frac", float64(busy)/float64(tr.cost.wall.Nanoseconds()))
	byOp := map[op][]float64{}
	for _, s := range daemon {
		o := op(s.label)
		if w.router {
			o = opBatch
		}
		byOp[o] = append(byOp[o], float64(s.dur()))
	}
	meanRouteNs := 0.0
	for o, xs := range byOp {
		d := summarize(xs)
		rep.set("daemon.handler_us."+opNames[o]+".p50", usOf(d.p50))
		rep.set("daemon.handler_us."+opNames[o]+".p99", usOf(d.tail))
		if o == opRoute {
			meanRouteNs = d.mean
		}
	}
	if lookups := (c1.hits - c0.hits) + (c1.misses - c0.misses); lookups > 0 {
		rep.set("cache.hit_ratio", float64(c1.hits-c0.hits)/float64(lookups))
	}
	rep.set("cache.dedups", float64(c1.dedups-c0.dedups))

	if err := probePool(rep); err != nil {
		return err
	}
	tops := servedTops()
	switch w.s.reqs[0].op {
	case opPaths:
		return probePaths(tops, w.s, seed, rep)
	case opBatch:
		probeRoutes(tops, w.s.reqs, rep)
		kernel, err := probeRouteBatch(w.s, rep)
		if err != nil {
			return err
		}
		reportRouter(rep, router, daemon, c0, c1, kernel)
		return nil
	}
	route := probeRoutes(tops, w.s.reqs, rep)
	if meanRouteNs > 0 {
		rep.set("core.kernel_share.route", route/meanRouteNs)
	}
	return probeFaultRoute(tops, w.s, rep)
}

// reportRouter reduces router and replica spans and counters. Self
// time is each router span minus the union of its replica spans.
func reportRouter(rep *report, router, replica []span, c0, c1 counters, kernelNsPerPair float64) {
	rd := summarize(durations(router))
	rep.set("router.handler_us.p50", usOf(rd.p50))
	rep.set("router.handler_us.p99", usOf(rd.tail))
	kids, _ := nest(router, replica)
	var self []float64
	for i, k := range kids {
		self = append(self, float64(selfTime(router[i], k)))
	}
	rep.set("router.self_us", usOf(median(self)))
	if len(router) > 0 {
		rep.set("router.subbatches_per_batch", float64(c1.fanout-c0.fanout)/float64(len(router)))
	}
	rep.set("router.retries", float64(c1.retries-c0.retries))
	rep.set("router.sheds", float64(c1.shed-c0.shed))

	rep.set("replica.handler_us", usOf(median(durations(replica))))
	var pairs, most uint64
	for i := range c1.batchPairs {
		d := c1.batchPairs[i] - c0.batchPairs[i]
		pairs += d
		most = max(most, d)
	}
	if pairs == 0 || len(replica) == 0 {
		return
	}
	var busy int64
	for _, s := range replica {
		busy += s.dur()
	}
	rep.set("replica.pairs_per_subbatch", float64(pairs)/float64(len(replica)))
	rep.set("replica.nonkernel_ns_per_pair", float64(busy)/float64(pairs)-kernelNsPerPair)
	rep.set("replica.pair_share_max", float64(most)/float64(pairs))
}
