package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/simnet"
)

// noc-sweep: the wormhole NoC engine in adaptive mode with the HB
// escape channel on HB(4,4), uniform traffic, swept over a fixed rate
// ladder that spans the saturation knee. One sweep point is what
// cmd/hbsim does per rate: noc.New, then Run. One pass runs every point
// of the ladder; a pass is the unit the latency metrics time, and a
// delivered packet is the pair the per-pair metrics count.

var (
	nocHB        = dims{4, 4}
	nocRates     = []float64{0.02, 0.05, 0.08, 0.3}
	nocRateNames = []string{"0.02", "0.05", "0.08", "0.3"}
)

const (
	nocCycles = 128
	// nocInjectCycles stops injection early so that below the knee the
	// network drains and every injected packet is delivered.
	nocInjectCycles = 96
	nocPacketLen    = 4
	nocBufDepth     = 2
	nocVCs          = 4
	nocWorkers      = 1 // the engine's results are identical for any worker count
	// nocKneeDelivered is the delivered share of injected packets below
	// which a ladder rate counts as past the knee.
	nocKneeDelivered = 0.95
)

// nocSim holds the instance a sweep runs on. top keeps the engine of
// the last pass's top rate, the largest working set, alive between
// passes, so retained-memory samples count one engine.
type nocSim struct {
	hb   *core.HyperButterfly
	seed int64
	top  *noc.Engine
}

// point is one measured sweep point.
type point struct {
	res        noc.Result
	newD, runD time.Duration
}

func (s *nocSim) config(rate float64) noc.Config {
	hb := s.hb
	return noc.Config{
		Cycles: nocCycles, InjectCycles: nocInjectCycles, Rate: rate, PacketLen: nocPacketLen, BufDepth: nocBufDepth, VCs: nocVCs,
		Pattern: simnet.Uniform, Seed: s.seed, Workers: nocWorkers, MaxRoute: hb.DiameterFormula(),
		Adaptive: &noc.AdaptiveConfig{Distance: hb.Distance, AppendRoute: hb.AppendRoute, Escape: noc.NewHBEscape(hb)},
	}
}

// pass runs every ladder point once.
func (s *nocSim) pass() ([]point, error) {
	pts := make([]point, len(nocRates))
	for i, rate := range nocRates {
		p := &pts[i]
		t0 := time.Now()
		e, err := noc.New(s.hb, s.config(rate))
		if err != nil {
			return nil, fmt.Errorf("noc.New at rate %v: %w", rate, err)
		}
		t1 := time.Now()
		p.res, err = e.Run()
		p.newD, p.runD = t1.Sub(t0), time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("noc run at rate %v: %w", rate, err)
		}
		s.top = e
	}
	return pts, nil
}

// checkPoint rejects a deadlocked or mis-accounted run.
func checkPoint(rate float64, r noc.Result) error {
	if r.Deadlocked {
		return fmt.Errorf("noc rate %v deadlocked at cycle %d", rate, r.DeadCycle)
	}
	if r.Injected != r.Delivered+r.Dropped+r.InFlight {
		return fmt.Errorf("noc rate %v: injected %d != delivered %d + dropped %d + in flight %d",
			rate, r.Injected, r.Delivered, r.Dropped, r.InFlight)
	}
	if r.Delivered == 0 {
		return fmt.Errorf("noc rate %v delivered nothing", rate)
	}
	return nil
}

// nocRun accumulates passes and validates them: every point must pass
// checkPoint, and every pass must reproduce the first pass's results
// exactly, since the engine is deterministic for a fixed seed.
type nocRun struct {
	ref       []noc.Result
	acct      tally
	passes    [][]point
	passMs    []float64
	delivered int
}

func (n *nocRun) add(pts []point) {
	for i, p := range pts {
		n.acct.attempted++
		err := checkPoint(nocRates[i], p.res)
		if err == nil && n.ref != nil && p.res != n.ref[i] {
			err = fmt.Errorf("noc rate %v: result %+v differs from the first pass %+v with the same seed", nocRates[i], p.res, n.ref[i])
		}
		if err != nil {
			n.acct.failed++
			n.acct.errs = append(n.acct.errs, err)
			continue
		}
		n.delivered += p.res.Delivered
	}
	if n.ref == nil {
		n.ref = make([]noc.Result, len(pts))
		for i, p := range pts {
			n.ref[i] = p.res
		}
	}
	total := time.Duration(0)
	for _, p := range pts {
		total += p.newD + p.runD
	}
	n.passMs = append(n.passMs, float64(total)/1e6)
	n.passes = append(n.passes, pts)
}

// sweep runs passes for window.
func (s *nocSim) sweep(n *nocRun, window time.Duration) (delta, error) {
	before := readUsageWithPauses()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		pts, err := s.pass()
		if err != nil {
			return delta{}, err
		}
		n.add(pts)
	}
	return readUsageWithPauses().since(before), nil
}

// setupNoC builds the instance and runs the first pass, which sizes
// every engine arena; it returns the time both took.
func setupNoC(seed int64, n *nocRun) (*nocSim, time.Duration, error) {
	start := time.Now()
	s := &nocSim{hb: core.MustNew(nocHB.M, nocHB.N), seed: seed}
	pts, err := s.pass()
	if err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	n.add(pts)
	return s, elapsed, nil
}

func runNoC(seed int64, window time.Duration, rep *report) error {
	first := &nocRun{}
	s, d, err := setupNoC(seed, first)
	if err != nil {
		return err
	}
	setups := []float64{d.Seconds()}
	heap := retainedMB()
	if rep.trace {
		rep.acct.add(first.acct)
		return traceNoC(s, first.ref, window, rep)
	}

	// Sweep in slices, with spare set-ups between them, as the serving
	// workloads do: throughput is the median slice, CPU time and
	// allocations are totals.
	run := &nocRun{ref: first.ref}
	var tput []float64
	var total delta
	for i := 0; i < slices; i++ {
		before := run.delivered
		cost, err := s.sweep(run, window/slices)
		if err != nil {
			return err
		}
		pairs := float64(run.delivered - before)
		if pairs == 0 {
			return fmt.Errorf("noc sweep slice delivered nothing")
		}
		tput = append(tput, pairs/cost.wall.Seconds())
		total.add(cost)
		for len(setups) < setupRepeats*(i+1)/slices {
			if _, d, err = setupNoC(seed, first); err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
	}
	rep.acct.add(first.acct)
	rep.acct.add(run.acct)
	lat := summarize(run.passMs)
	rep.set("setup_s", median(setups))
	rep.set("pairs_per_s", median(tput))
	rep.set("cpu_us_per_pair", float64(total.cpu.Microseconds())/float64(run.delivered))
	rep.set("allocs_per_pair", float64(total.allocs)/float64(run.delivered))
	rep.set("p50_ms", lat.p50)
	rep.set("mem_peak_mb", heap)
	rep.note("noc: %d passes of %d rates x %d cycles on %v, %d packets delivered; pass time p%.2f %.4f ms",
		len(run.passes), len(nocRates), nocCycles, nocHB, run.delivered, lat.pct, lat.tail)
	return nil
}

// traceNoC runs half the window untraced and half traced, timing each
// noc.New and Run call, and reports the per-layer metrics.
func traceNoC(s *nocSim, ref []noc.Result, window time.Duration, rep *report) error {
	untraced := &nocRun{ref: ref}
	ucost, err := s.sweep(untraced, window/2)
	rep.acct.add(untraced.acct)
	if err != nil {
		return err
	}
	traced := &nocRun{ref: ref}
	tcost, err := s.sweep(traced, window/2)
	rep.acct.add(traced.acct)
	if err != nil {
		return err
	}
	up := float64(untraced.delivered) / ucost.wall.Seconds()
	tp := float64(traced.delivered) / tcost.wall.Seconds()
	rep.set("trace.untraced_pairs_per_s", up)
	rep.set("trace.pairs_per_s", tp)
	rep.set("trace.overhead_frac", 1-tp/up)
	rep.set("gc.cycles", float64(ucost.gcs))
	rep.set("gc.pause_ms", float64(ucost.pauseNs)/1e6)
	rep.set("heap.bytes_per_pair", float64(ucost.bytes)/float64(untraced.delivered))
	lat := summarize(append([]float64(nil), traced.passMs...))
	rep.set("gen.samples", float64(lat.n))
	rep.set("gen.tail_pct", lat.pct)
	rep.set("gen.p99_ms", lat.tail)

	var news []float64
	var events int64
	var runTime time.Duration
	knee, below := 0.0, true
	for i, rate := range nocRates {
		var runs, perEvent []float64
		for _, pts := range traced.passes {
			p := pts[i]
			news = append(news, float64(p.newD)/1e6)
			runs = append(runs, p.runD.Seconds())
			perEvent = append(perEvent, float64(p.runD)/float64(max(p.res.FlitEvents, 1)))
			events += p.res.FlitEvents
			runTime += p.runD
		}
		r := traced.ref[i]
		name := nocRateNames[i]
		rep.set("noc.run_s."+name, median(runs))
		rep.set("noc.ns_per_flit_event."+name, median(perEvent))
		rep.set("noc.escape_ratio."+name, float64(r.Escapes)/float64(r.Injected))
		delivered := float64(r.Delivered) / float64(r.Injected)
		rep.set("noc.delivered_ratio."+name, delivered)
		if below = below && delivered >= nocKneeDelivered; below {
			knee = rate
		}
	}
	rep.set("noc.knee_rate", knee)
	rep.set("noc.new_ms", median(news))
	rep.set("sim_flit_events_per_s", float64(events)/runTime.Seconds())
	top, low := traced.ref[len(nocRates)-1], traced.ref[0]
	rep.set("sim_sat_throughput", float64(top.Delivered*nocPacketLen)/float64(top.Cycles))
	rep.set("sim_light_latency_cycles", low.AvgLatency)
	return nil
}
