package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/hbserve"
)

// Serving workloads: route-mix and paths-skew drive one daemon,
// batch-fleet drives the router in front of fleetReplicas daemons.

const (
	genWorkers    = 2 // generator connections and goroutines: nproc on the reference box
	fleetReplicas = 3
	fleetR        = 2 // router replication factor
	setupRepeats  = 9 // set-ups per run, spread over it; setup_s is their median
	slices        = 4 // measured slices per run; each metric is their median
	warmSlice     = 3 * time.Second
)

// serving describes one serving workload.
type serving struct {
	s      *stream
	insts  []dims  // instances the answers are checked on
	router bool    // front the daemons with the router
	rate   float64 // open-loop offered requests per second
}

// fleet is the in-process system under test.
type fleet struct {
	front   *node
	nodes   []*node
	daemons []*hbserve.Server
	router  *hbserve.Router

	daemonSpans spanLog // every daemon's handler; labels are ops, or replica indexes behind the router
	routerSpans spanLog
}

func newFleet(withRouter bool) (*fleet, error) {
	f := &fleet{}
	n := 1
	if withRouter {
		n = fleetReplicas
	}
	var urls []string
	for i := 0; i < n; i++ {
		srv := hbserve.NewServer(hbserve.Config{})
		label := opLabel
		if withRouter {
			label = replicaLabel(i)
		}
		nd, err := startNode(f.daemonSpans.wrap(srv.Handler(), label))
		if err != nil {
			f.close()
			return nil, err
		}
		f.daemons = append(f.daemons, srv)
		f.nodes = append(f.nodes, nd)
		urls = append(urls, nd.url)
	}
	f.front = f.nodes[0]
	if !withRouter {
		return f, nil
	}
	rt, err := hbserve.NewRouter(hbserve.ClusterConfig{Replicas: urls, Replication: fleetR})
	if err != nil {
		f.close()
		return nil, err
	}
	rt.Start()
	f.router = rt
	nd, err := startNode(f.routerSpans.wrap(rt.Handler(), func(*http.Request) uint8 { return 0 }))
	if err != nil {
		f.close()
		return nil, err
	}
	f.nodes = append(f.nodes, nd)
	f.front = nd
	return f, nil
}

func (f *fleet) close() {
	if f.router != nil {
		f.router.Stop()
	}
	for _, n := range f.nodes {
		n.close()
	}
}

// counters snapshots the public counters of every layer.
type counters struct {
	hits, misses, dedups uint64
	batchPairs           []uint64 // per daemon
	fanout, retries      uint64
	shed                 uint64
}

func (f *fleet) counters() counters {
	var c counters
	for _, d := range f.daemons {
		h, m, dd := d.Cache().Stats()
		c.hits += h
		c.misses += m
		c.dedups += dd
		c.batchPairs = append(c.batchPairs, d.Metrics().BatchPairs())
	}
	if f.router != nil {
		st := f.router.Status()
		c.fanout = st.SubbatchFanout
		c.retries = st.Retries + st.SubbatchRetries
		c.shed = st.Shed
	}
	return c
}

// bench is one run of a serving workload.
type bench struct {
	w      *serving
	client *http.Client
	f      *fleet
	g      *gen
	v      *validator
	acct   tally   // every answer of the run, warm-up included
	heapMB float64 // heap retained after set-up and the fixed-count warm-up
}

func (b *bench) newGen(client *http.Client, f *fleet) *gen {
	g := &gen{client: client, base: f.front.url, s: b.w.s}
	if b.w.s.reqs[0].op == opBatch {
		insts := b.w.insts
		g.inline = func() *checker { return newChecker(insts...) }
	}
	return g
}

// build starts a fleet and sends the stream's first-use requests over
// client, which trigger every lazy build (pool entries, dense
// adjacency, fault routers, router admission). It returns the fleet and
// the time both took.
func (b *bench) build(client *http.Client) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := newFleet(b.w.router)
	if err != nil {
		return nil, 0, err
	}
	g := b.newGen(client, f)
	first := &phase{logs: []*workerLog{{}}}
	if g.inline != nil {
		first.logs[0].inline = g.inline()
	}
	for i := range b.w.s.first {
		g.send(first.logs[0], -(i + 1), &b.w.s.first[i], now())
	}
	elapsed := time.Since(start)
	b.acct.add(b.v.tally(first))
	return f, elapsed, nil
}

// setup builds the fleet the run measures.
func (b *bench) setup() (time.Duration, error) {
	f, d, err := b.build(b.client)
	if err != nil {
		return 0, err
	}
	b.f, b.g = f, b.newGen(b.client, f)
	b.heapMB = max(b.heapMB, retainedMB())
	return d, nil
}

// spareSetup builds and discards one more fleet on its own client and
// returns its set-up time. The run spreads these between its slices, so
// setup_s is a median over the whole run rather than over one moment
// of the shared box.
func (b *bench) spareSetup() (time.Duration, error) {
	client := newClient(genWorkers)
	defer client.CloseIdleConnections()
	f, d, err := b.build(client)
	if err != nil {
		return 0, err
	}
	f.close()
	return d, nil
}

// warmUp sends the stream's warm-up requests and then one unmeasured
// ceiling slice, so caches, connection pools and the heap have reached
// their working size before any metric is taken. The retained heap is
// sampled after the warm-up requests, a fixed amount of work: later
// samples grow with how much traffic a run got through (replicas keep
// sub-batch answers of up to 256 pairs in their route cache, about
// 30 KB each) and moved by 60% between runs.
func (b *bench) warmUp() {
	b.phase(phaseSpec{workers: genWorkers, limit: int64(b.w.s.warm)})
	b.heapMB = max(b.heapMB, retainedMB())
	b.phase(phaseSpec{workers: genWorkers, dur: warmSlice})
}

// phase runs and validates one phase, then samples retained memory.
func (b *bench) phase(spec phaseSpec) (*phase, tally) {
	ph := b.g.run(spec)
	t := b.v.tally(ph)
	b.acct.add(t)
	ph.drop()
	return ph, t
}

func (b *bench) close() {
	if b.f != nil {
		b.f.close()
	}
	b.client.CloseIdleConnections()
}

func newBench(w *serving) *bench {
	return &bench{w: w, client: newClient(genWorkers), v: newValidator(w.s, newChecker(w.insts...))}
}

// runServing measures a serving workload: set-up, warm-up, then
// closed-loop ceiling slices alternating with open-loop slices at the
// workload's fixed rate, with spare set-ups between them.
func runServing(w *serving, window time.Duration, rep *report) error {
	b := newBench(w)
	defer b.close()
	d, err := b.setup()
	if err != nil {
		return err
	}
	setups := []float64{d.Seconds()}
	b.warmUp()

	// Alternate ceiling and open-loop slices, a third of the window in
	// the ceiling and two thirds in the open loop, whose tail needs the
	// samples. Throughput is the median slice, so a stall of the shared
	// box spoils one slice, not the run; CPU time and allocations, which
	// a stall does not inflate, are totals over all ceiling slices.
	slice := window / (3 * slices)
	var tput, latency []float64
	var cost delta
	requests, pairs := 0, 0
	for i := 0; i < slices; i++ {
		ceil, ct := b.phase(phaseSpec{workers: genWorkers, dur: slice})
		_, ot := b.phase(phaseSpec{workers: genWorkers, dur: 2 * slice, rate: w.rate})
		if ct.okPairs == 0 {
			return fmt.Errorf("no pair answered correctly in a ceiling slice")
		}
		tput = append(tput, float64(ct.okPairs)/ceil.cost.wall.Seconds())
		cost.add(ceil.cost)
		pairs += ct.okPairs
		latency = append(latency, ot.latencyMs...)
		requests += ct.attempted
		for len(setups) < setupRepeats*(i+1)/slices {
			d, err := b.spareSetup()
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
	}
	lat := summarize(latency)
	rep.set("setup_s", median(setups))
	rep.set("pairs_per_s", median(tput))
	rep.set("cpu_us_per_pair", float64(cost.cpu.Microseconds())/float64(pairs))
	rep.set("allocs_per_pair", float64(cost.allocs)/float64(pairs))
	rep.set("p50_ms", lat.p50)
	rep.set("mem_peak_mb", b.heapMB)
	rep.note("ceiling: %d requests in %d closed-loop slices of %v over %d connections; pairs/s by slice %.0f",
		requests, slices, slice, genWorkers, tput)
	rep.note("open loop: %.0f req/s offered in %d slices of %v, %d samples; p%.2f %.4f ms (not gated, see README)",
		w.rate, slices, 2*slice, lat.n, lat.pct, lat.tail)
	rep.acct.add(b.acct)
	return nil
}

// report collects one run's metrics and notes.
type report struct {
	trace   bool
	metrics map[string]float64
	acct    tally
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(os.Stdout, "# "+format+"\n", args...)
}
