// Command perfbench is the repository benchmark. It runs one named
// workload against the in-process system (hbd daemons, the replica
// router, or the NoC engine), checks every answer, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate traced pass reports the per-layer set. See README.md for
// what each metric means on each workload.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload route-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// unit tables. BENCHMARK.json lists the same names and units
// (TestBenchmarkJSON keeps them in step).
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"pairs_per_s":     "1/s",
	"p50_ms":          "ms",
	"cpu_us_per_pair": "us",
	"allocs_per_pair": "count",
	"mem_peak_mb":     "MB",
}

var layerUnits = func() map[string]string {
	u := map[string]string{
		"gen.lag_p99_ms": "ms", "gen.conns": "count", "gen.samples": "count", "gen.tail_pct": "%", "gen.p99_ms": "ms",
		"client.wire_us":   "us",
		"daemon.busy_frac": "ratio",
		"cache.hit_ratio":  "ratio", "cache.dedups": "count",
		"pool.get_cold_us.hb3x8": "us", "pool.get_cold_us.hb10x10": "us", "pool.get_warm_ns": "ns",
		"core.route_ns": "ns", "core.appendroute_ns": "ns", "core.kernel_share.route": "ratio",
		"core.paths_us.case1": "us", "core.paths_us.case2": "us", "core.paths_us.case3": "us",
		"core.routebatch_ns_per_pair": "ns",
		"faultroute.setfaults_us":     "us", "faultroute.route_us": "us", "faultroute.greedy_share": "ratio",
		"router.handler_us.p50": "us", "router.handler_us.p99": "us", "router.self_us": "us",
		"router.subbatches_per_batch": "count", "router.retries": "count", "router.sheds": "count",
		"replica.handler_us": "us", "replica.pairs_per_subbatch": "count",
		"replica.nonkernel_ns_per_pair": "ns", "replica.pair_share_max": "ratio",
		"noc.new_ms": "ms", "noc.knee_rate": "rate",
		"sim_flit_events_per_s": "1/s", "sim_sat_throughput": "flit/cycle", "sim_light_latency_cycles": "cycles",
		"gc.cycles": "count", "gc.pause_ms": "ms", "heap.bytes_per_pair": "B",
		"trace.pairs_per_s": "1/s", "trace.untraced_pairs_per_s": "1/s", "trace.overhead_frac": "ratio",
	}
	for _, op := range []string{"route", "faultroute", "paths", "batch"} {
		u["daemon.handler_us."+op+".p50"] = "us"
		u["daemon.handler_us."+op+".p99"] = "us"
	}
	for _, r := range nocRateNames {
		u["noc.run_s."+r] = "s"
		u["noc.ns_per_flit_event."+r] = "ns"
		u["noc.escape_ratio."+r] = "ratio"
		u["noc.delivered_ratio."+r] = "ratio"
	}
	return u
}()

var workloadNames = []string{"route-mix", "paths-skew", "batch-fleet", "noc-sweep"}

// Open-loop offered rates, about a sixth of the parent commit's
// closed-loop ceiling on the 2-core reference box (25k req/s, 720 req/s
// and 840 batches/s). At half the ceiling the open-loop tail swung by
// more than 100% between runs on that shared box, whose stalls queueing
// amplifies.
const (
	routeMixRate   = 4000 // requests per second
	pathsSkewRate  = 120
	batchFleetRate = 140 // 1024-pair batches per second
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: route-mix, paths-skew, batch-fleet or noc-sweep")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	rep := &report{trace: *trace == 1, metrics: map[string]float64{}}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := rep.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for i, e := range rep.acct.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(rep.acct.errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: failure: %v\n", e)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("fail_ratio %.6g (%d of %d operations failed)\n",
		float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed int64, window time.Duration, rep *report) error {
	var err error
	switch workload {
	case "route-mix":
		w := &serving{s: newRouteMix(seed), insts: servedHB, rate: routeMixRate}
		err = runServingMode(w, seed, window, rep)
	case "paths-skew":
		w := &serving{s: newPathsSkew(seed), insts: servedHB, rate: pathsSkewRate}
		err = runServingMode(w, seed, window, rep)
	case "batch-fleet":
		s, gerr := newBatchFleet(seed)
		if gerr != nil {
			return gerr
		}
		w := &serving{s: s, insts: []dims{implicitHB}, router: true, rate: batchFleetRate}
		err = runServingMode(w, seed, window, rep)
	case "noc-sweep":
		err = runNoC(seed, window, rep)
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		return err
	}
	if mb, err := peakRSSMB(); err == nil {
		rep.note("resident-set high-water mark %.1f MB", mb)
	}
	return nil
}

func runServingMode(w *serving, seed int64, window time.Duration, rep *report) error {
	if rep.trace {
		return traceServing(w, window, rep, seed)
	}
	return runServing(w, window, rep)
}

// result checks that the run produced exactly the metric set its mode
// promises. Per-layer metrics of layers the workload never reaches are
// reported as 0.
func (r *report) result() (*resultOut, error) {
	units := e2eUnits
	if r.trace {
		units = layerUnits
		for name := range units {
			if _, ok := r.metrics[name]; !ok {
				r.metrics[name] = 0
			}
		}
	}
	out := &resultOut{
		Correct:   r.acct.failed == 0 && r.acct.attempted > 0,
		Attempted: r.acct.attempted,
		Failed:    r.acct.failed,
		Metrics:   map[string]metricOut{},
	}
	for name, v := range r.metrics {
		u, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is not in this mode's set", name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A failed request's latency is +Inf, so a run with enough
			// failures has no finite percentile. JSON cannot carry it; the
			// run is already incorrect.
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v\n", name, v)
			out.Correct = false
			v = 0
		}
		out.Metrics[name] = metricOut{Value: v, Unit: u}
	}
	for name := range units {
		if _, ok := r.metrics[name]; !ok {
			return nil, fmt.Errorf("metric %q was not measured", name)
		}
	}
	return out, nil
}
