// Command hbd is the hyper-butterfly topology-query daemon: a
// long-lived HTTP/JSON service answering routing questions that the
// one-shot CLIs (hbnet, hbcheck) recompute from scratch per invocation.
//
//	hbd -addr :8080                          serve queries
//	hbd -mode load -url http://127.0.0.1:8080 -m 2 -n 4 \
//	    -qps 500 -duration 3s -out BENCH_serve.json     replay load mixes
//	hbd -mode router -addr :8090 \
//	    -replicas http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
//	                                         shard queries across a fleet
//	hbd -mode clusterload -router http://127.0.0.1:8090 \
//	    -replicas ... -out BENCH_cluster.json            fleet-level load
//
// Endpoints (all GET, JSON responses):
//
//	/route?m=2&n=3&u=0&v=95        shortest route + generator sequence
//	/paths?m=2&n=3&u=0&v=95        the m+4 disjoint paths (Theorem 5)
//	/faultroute?...&faults=3,17    fault-avoiding route (Remark 10)
//	/info?m=2&n=3                  order/edges/degree/diameter/connectivity
//	/estimate?m=10&n=10            exact distance histogram and diameter
//	/conformance?m=2&n=3           re-run the invariant registry
//	/metrics                       Prometheus text exposition
//	/healthz                       liveness
//
// Responses are byte-identical for identical queries; /paths bodies are
// cached. SIGINT/SIGTERM drain in-flight requests before exit. Every
// request runs under a deadline (-timeout), overload sheds with 503 +
// Retry-After (-maxinflight), and handler panics answer 500 and
// increment hbd_panics_total instead of killing the daemon.
//
// Every instance up to -maxorder nodes is served by the label-arithmetic
// implicit engine, so a query against HB(10,10) (~10.5M nodes) answers
// from a cold daemon without building the product graph.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/hbserve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "serve", "serve | load | router | clusterload")
	addr := fs.String("addr", ":8080", "serve: listen address")
	poolMax := fs.Int("pool", 0, "serve: max resident HB instances (0 = default)")
	cacheSize := fs.Int("cache", 0, "serve: /paths response-cache entries (0 = default, -1 disables)")
	maxOrder := fs.Int("maxorder", 0, "serve: max nodes of a served instance; larger dims are rejected (0 = default 2^24)")
	grace := fs.Duration("grace", 10*time.Second, "serve: shutdown drain budget")
	timeout := fs.Duration("timeout", 0, "serve: per-request deadline (0 = default, negative disables)")
	maxInFlight := fs.Int("maxinflight", 0, "serve: 503 load-shedding bound (0 = default, negative disables)")
	batchWorkers := fs.Int("batchworkers", 0, "serve: /batch kernel fan-out (0 = GOMAXPROCS)")

	url := fs.String("url", "http://127.0.0.1:8080", "load: target base URL")
	m := fs.Int("m", 2, "load: hypercube dimension")
	n := fs.Int("n", 4, "load: butterfly dimension")
	qps := fs.Int("qps", 500, "load: target request rate per mix")
	duration := fs.Duration("duration", 3*time.Second, "load: measured window per mix")
	workers := fs.Int("workers", 32, "load: concurrent requesters")
	seed := fs.Int64("seed", 1, "load: rng seed")
	endpoints := fs.String("endpoints", "route", "load: comma-separated endpoints (route,paths)")
	mixes := fs.String("mixes", "uniform,permutation", "load: comma-separated mixes")
	out := fs.String("out", "BENCH_serve.json", "load: report path")
	batch := fs.Int("batch", 0, "load/clusterload: also run /batch with this many pairs per request (0 disables)")
	codec := fs.String("codec", "bin", "load/clusterload: /batch codec (json or bin)")
	batchQPS := fs.Int("batchqps", 0, "load/clusterload: /batch request rate (0 = mode default)")

	replicas := fs.String("replicas", "", "router/clusterload: comma-separated replica base URLs")
	vnodes := fs.Int("vnodes", 0, "router: virtual nodes per replica on the hash ring (0 = default)")
	queueDepth := fs.Int("queue", 0, "router: bounded forward queue depth (0 = default, negative disables)")
	attempts := fs.Int("attempts", 0, "router: max distinct replicas tried per request (0 = default)")
	probeInterval := fs.Duration("probeinterval", 0, "router: health probe cadence (0 = default)")
	probeTimeout := fs.Duration("probetimeout", 0, "router: per-probe deadline (0 = default)")
	eject := fs.Int("eject", 0, "router: consecutive failures before ejection (0 = default)")
	readmit := fs.Int("readmit", 0, "router: consecutive probe successes before re-admission (0 = default)")
	replication := fs.Int("replication", 0, "router: alive owners per key (0 = default 2)")
	scatterMin := fs.Int("scattermin", 0, "router: smallest /batch split across the ring (0 = default, negative disables scatter)")

	router := fs.String("router", "http://127.0.0.1:8090", "clusterload: router base URL")
	shedBudget := fs.Float64("shedbudget", 0, "clusterload: allowed non-2xx fraction on the router leg (0 = default 1%, negative = zero tolerance)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *mode {
	case "serve":
		srv := hbserve.NewServer(hbserve.Config{
			PoolMax:        *poolMax,
			MaxOrder:       *maxOrder,
			CacheSize:      *cacheSize,
			RequestTimeout: *timeout,
			MaxInFlight:    *maxInFlight,
			BatchWorkers:   *batchWorkers,
		})
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(stdout, "hbd: serving on %s (SIGTERM drains in-flight requests)\n", *addr)
		if err := srv.ListenAndServe(ctx, *addr, *grace); err != nil {
			fmt.Fprintf(stderr, "hbd: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "hbd: drained cleanly")
		return 0

	case "load":
		rep := &hbserve.BenchReport{M: *m, N: *n}
		for _, ep := range splitList(*endpoints) {
			for _, mix := range splitList(*mixes) {
				res, err := hbserve.Load(hbserve.LoadConfig{
					BaseURL:  *url,
					M:        *m,
					N:        *n,
					Endpoint: ep,
					Mix:      mix,
					QPS:      *qps,
					Duration: *duration,
					Workers:  *workers,
					Seed:     *seed,
				})
				if err != nil {
					fmt.Fprintf(stderr, "hbd: load %s/%s: %v\n", ep, mix, err)
					return 1
				}
				rep.Results = append(rep.Results, res)
				fmt.Fprintf(stdout, "hbd: %-6s %-12s %6d req  %8.1f qps  p50 %.3fms  p99 %.3fms  non-2xx %d\n",
					ep, mix, res.Requests, res.AchievedQPS, res.LatencyMS.P50, res.LatencyMS.P99, res.Non2xx)
			}
		}
		if *batch > 0 {
			bq := *batchQPS
			if bq <= 0 {
				bq = *qps
			}
			for _, mix := range splitList(*mixes) {
				res, err := hbserve.Load(hbserve.LoadConfig{
					BaseURL:  *url,
					M:        *m,
					N:        *n,
					Endpoint: "route",
					Mix:      mix,
					QPS:      bq,
					Duration: *duration,
					Workers:  *workers,
					Seed:     *seed,
					Batch:    *batch,
					Codec:    *codec,
				})
				if err != nil {
					fmt.Fprintf(stderr, "hbd: batch load %s: %v\n", mix, err)
					return 1
				}
				rep.Results = append(rep.Results, res)
				fmt.Fprintf(stdout, "hbd: batch=%d %-4s %-12s %6d req  %8.1f qps  %10.0f routes/s  p50 %.3fms  p99 %.3fms  non-2xx %d\n",
					*batch, res.Codec, mix, res.Requests, res.AchievedQPS, res.RoutesPerSec, res.LatencyMS.P50, res.LatencyMS.P99, res.Non2xx)
			}
			if sp := rep.ComputeBatchSpeedup(); sp > 0 {
				fmt.Fprintf(stdout, "hbd: batch speedup %.1fx routes/s vs single-query\n", sp)
			}
		}
		if err := rep.ScrapeCacheStats(*url); err != nil {
			fmt.Fprintf(stderr, "hbd: metrics scrape: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "hbd: cache hits=%d misses=%d dedups=%d hit-rate=%.1f%%\n",
			rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Dedups, 100*rep.Cache.HitRate)
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintf(stderr, "hbd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "hbd: wrote %s\n", *out)
		if rep.TotalNon2xx() > 0 {
			fmt.Fprintf(stderr, "hbd: %d non-2xx responses\n", rep.TotalNon2xx())
			return 1
		}
		return 0

	case "router":
		rt, err := hbserve.NewRouter(hbserve.ClusterConfig{
			Replicas:        splitList(*replicas),
			VNodes:          *vnodes,
			QueueDepth:      *queueDepth,
			MaxAttempts:     *attempts,
			ForwardTimeout:  *timeout,
			ProbeInterval:   *probeInterval,
			ProbeTimeout:    *probeTimeout,
			EjectAfter:      *eject,
			ReadmitAfter:    *readmit,
			Replication:     *replication,
			ScatterMinPairs: *scatterMin,
		})
		if err != nil {
			fmt.Fprintf(stderr, "hbd: %v\n", err)
			return 2
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(stdout, "hbd: routing on %s over %d replicas (SIGTERM drains in-flight requests)\n",
			*addr, len(splitList(*replicas)))
		if err := rt.ListenAndServe(ctx, *addr, *grace); err != nil {
			fmt.Fprintf(stderr, "hbd: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "hbd: drained cleanly")
		return 0

	case "clusterload":
		rep, err := hbserve.LoadCluster(hbserve.ClusterLoadConfig{
			RouterURL:  *router,
			Replicas:   splitList(*replicas),
			M:          *m,
			N:          *n,
			Endpoint:   firstOr(splitList(*endpoints), "route"),
			Mix:        firstOr(splitList(*mixes), "uniform"),
			QPS:        *qps,
			Duration:   *duration,
			Workers:    *workers,
			Seed:       *seed,
			ShedBudget: *shedBudget,
			Batch:      *batch,
			BatchQPS:   *batchQPS,
			Codec:      *codec,
		})
		if err != nil {
			fmt.Fprintf(stderr, "hbd: clusterload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "hbd: router leg %6d req  %8.1f qps  p50 %.3fms  p99 %.3fms  non-2xx %d (shed %d, retries %d)\n",
			rep.RouterResult.Requests, rep.RouterResult.AchievedQPS,
			rep.RouterResult.LatencyMS.P50, rep.RouterResult.LatencyMS.P99,
			rep.RouterResult.Non2xx, rep.RouterShed, rep.RouterRetry)
		for _, s := range rep.Share {
			fmt.Fprintf(stdout, "hbd:   %-28s forwarded %6d (%.1f%%)\n", s.URL, s.Forwarded, 100*s.Share)
		}
		if rb := rep.RouterBatch; rb != nil {
			fmt.Fprintf(stdout, "hbd: batch leg  batch=%d %-4s %6d req  %10.0f routes/s  lost %d  p50 %.3fms  non-2xx %d\n",
				*batch, rb.Codec, rb.Requests, rb.RoutesPerSec, rb.LostPairs, rb.LatencyMS.P50, rb.Non2xx)
			fmt.Fprintf(stdout, "hbd: batch aggregate %.0f routes/s across %d batch legs\n",
				rep.BatchRoutesPerSec, 1+len(rep.DirectBatch))
		}
		fmt.Fprintf(stdout, "hbd: aggregate %.0f routes/s across %d legs\n",
			rep.AggregateRoutesPerSec, 1+len(rep.Direct)+boolToInt(rep.RouterBatch != nil)+len(rep.DirectBatch))
		if *out != "" {
			path := *out
			if path == "BENCH_serve.json" {
				path = "BENCH_cluster.json" // load-mode default doesn't fit here
			}
			if err := rep.WriteFile(path); err != nil {
				fmt.Fprintf(stderr, "hbd: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "hbd: wrote %s\n", path)
		}
		if !rep.WithinBudget {
			fmt.Fprintf(stderr, "hbd: router leg outside shed budget: %d/%d non-2xx (budget %.3f)\n",
				rep.RouterResult.Non2xx, rep.RouterResult.Requests, rep.ShedBudget)
			return 1
		}
		return 0

	default:
		fmt.Fprintf(stderr, "hbd: unknown mode %q (want serve, load, router, or clusterload)\n", *mode)
		return 2
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// firstOr returns the first element of a flag list, or def if empty.
func firstOr(list []string, def string) string {
	if len(list) > 0 {
		return list[0]
	}
	return def
}

// splitList splits a comma-separated flag, dropping empties.
func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
