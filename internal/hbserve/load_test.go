package hbserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func TestLoadAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load run in -short")
	}
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep := &BenchReport{M: 1, N: 3}
	for _, mix := range []string{"uniform", "permutation"} {
		res, err := Load(LoadConfig{
			BaseURL:  ts.URL,
			M:        1,
			N:        3,
			Endpoint: "route",
			Mix:      mix,
			QPS:      400,
			Duration: 500 * time.Millisecond,
			Workers:  8,
			Seed:     1,
		})
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if res.Requests == 0 {
			t.Fatalf("%s: no requests completed", mix)
		}
		if res.Non2xx != 0 {
			t.Fatalf("%s: %d non-2xx responses", mix, res.Non2xx)
		}
		if res.LatencyMS.P50 <= 0 || res.LatencyMS.P99 < res.LatencyMS.P50 {
			t.Errorf("%s: implausible percentiles %+v", mix, res.LatencyMS)
		}
		rep.Results = append(rep.Results, res)
	}

	// /route is uncached; a permutation lap of /paths over HB(1,3)'s 48
	// nodes repeats its pairs, so the cache must be taking hits by now.
	paths, err := Load(LoadConfig{
		BaseURL:  ts.URL,
		M:        1,
		N:        3,
		Endpoint: "paths",
		Mix:      "permutation",
		QPS:      400,
		Duration: 500 * time.Millisecond,
		Workers:  8,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("paths: %v", err)
	}
	if paths.Non2xx != 0 {
		t.Fatalf("paths: %d non-2xx responses", paths.Non2xx)
	}
	if err := rep.ScrapeCacheStats(ts.URL); err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Hits == 0 {
		t.Error("no cache hits after a /paths permutation lap on a 48-node instance")
	}
	if rep.Cache.HitRate <= 0 {
		t.Errorf("hit rate %v", rep.Cache.HitRate)
	}

	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Results) != 2 || back.TotalNon2xx() != 0 {
		t.Errorf("round-tripped report %+v", back)
	}
}

// TestBatchLoadAgainstLiveServer drives /batch through the load
// generator in both codecs and cross-checks pair accounting against the
// server's own batch counters.
func TestBatchLoadAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load run in -short")
	}
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep := &BenchReport{M: 1, N: 3}
	single, err := Load(LoadConfig{
		BaseURL: ts.URL, M: 1, N: 3, Endpoint: "route", Mix: "uniform",
		QPS: 200, Duration: 400 * time.Millisecond, Workers: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Results = append(rep.Results, single)

	const batch = 64
	for _, codec := range []string{"json", "bin"} {
		res, err := Load(LoadConfig{
			BaseURL: ts.URL, M: 1, N: 3, Endpoint: "route", Mix: "uniform",
			QPS: 200, Duration: 400 * time.Millisecond, Workers: 8, Seed: 2,
			Batch: batch, Codec: codec,
		})
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if res.Non2xx != 0 {
			t.Fatalf("%s: %d non-2xx responses", codec, res.Non2xx)
		}
		if res.Requests == 0 || res.Pairs != res.Requests*batch {
			t.Fatalf("%s: %d requests, %d pairs (want %d)", codec, res.Requests, res.Pairs, res.Requests*batch)
		}
		if res.RoutesPerSec <= 0 || res.Batch != batch || res.Codec != codec {
			t.Fatalf("%s: result %+v", codec, res)
		}
		rep.Results = append(rep.Results, res)
	}

	// One batched request answers `batch` pairs, so pair throughput must
	// beat the single-query baseline even in a short window.
	if sp := rep.ComputeBatchSpeedup(); sp <= 1 {
		t.Errorf("batch speedup %.2f, want > 1", sp)
	}
	// The server counted every pair the client counted.
	wantPairs := uint64(0)
	for _, r := range rep.Results {
		if r.Batch > 0 {
			wantPairs += uint64(r.Pairs)
		}
	}
	if got := s.Metrics().BatchPairs(); got != wantPairs {
		t.Errorf("server counted %d batch pairs, client %d", got, wantPairs)
	}
}

// TestLoadAccountingExcludesNon2xx: non-2xx responses must be counted
// exactly once in Requests and excluded from the latency population.
// The stub answers ~2/3 of requests with an immediate 503 and the rest
// with a 200 after a 5ms stall; before the fix the fast 503s were both
// double-counted (inflating AchievedQPS) and recorded as latencies
// (dragging p50 under the 5ms floor of any real answer).
func TestLoadAccountingExcludesNon2xx(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load run in -short")
	}
	var ok200, err503 atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u, _ := strconv.Atoi(r.URL.Query().Get("u"))
		if u%3 != 0 {
			err503.Add(1)
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		time.Sleep(5 * time.Millisecond)
		ok200.Add(1)
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer ts.Close()

	res, err := Load(LoadConfig{
		BaseURL:  ts.URL,
		M:        1,
		N:        3,
		Endpoint: "route",
		Mix:      "uniform",
		QPS:      400,
		Duration: 400 * time.Millisecond,
		Workers:  8,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	served := int(ok200.Load() + err503.Load())
	if res.Requests != served {
		t.Errorf("Requests = %d, server answered %d (double counting?)", res.Requests, served)
	}
	if res.Non2xx != int(err503.Load()) {
		t.Errorf("Non2xx = %d, server sent %d 503s", res.Non2xx, err503.Load())
	}
	if res.Pairs != int(ok200.Load()) {
		t.Errorf("Pairs = %d, server answered %d 2xx", res.Pairs, ok200.Load())
	}
	if res.Non2xx == 0 || res.Pairs == 0 {
		t.Fatalf("degenerate mix: %d non-2xx, %d ok — stub broken", res.Non2xx, res.Pairs)
	}
	// Every 2xx stalls >= 5ms, so if the fast 503s leaked into the
	// latency population the median would sit far below the floor.
	if res.LatencyMS.P50 < 5 {
		t.Errorf("p50 %.3fms below the 5ms 2xx floor: non-2xx latencies leaked in", res.LatencyMS.P50)
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load(LoadConfig{QPS: 0, Duration: time.Second}); err == nil {
		t.Error("accepted qps=0")
	}
	if _, err := Load(LoadConfig{QPS: 10, Duration: time.Second, M: 2, N: 3, Mix: "nope", BaseURL: "http://x"}); err == nil {
		t.Error("accepted unknown mix")
	}
	if _, err := Load(LoadConfig{QPS: 10, Duration: time.Second, M: 1, N: 2, Mix: "uniform", BaseURL: "http://x"}); err == nil {
		t.Error("accepted invalid dims")
	}
	if _, err := Load(LoadConfig{QPS: 10, Duration: time.Second, M: 1, N: 3, Mix: "uniform", BaseURL: "http://x",
		Batch: 8, Codec: "xml"}); err == nil {
		t.Error("accepted unknown batch codec")
	}
	if _, err := Load(LoadConfig{QPS: 10, Duration: time.Second, M: 1, N: 3, Mix: "uniform", BaseURL: "http://x",
		Batch: 8, Endpoint: "conformance"}); err == nil {
		t.Error("accepted non-batch op endpoint in batch mode")
	}
}

// TestPercentileEdgeCases: the percentile helper must stay total on
// empty and single-element windows (an all-failure run records no
// latencies).
func TestPercentileEdgeCases(t *testing.T) {
	if p := percentile(nil, 0.99); p != 0 {
		t.Errorf("percentile(nil) = %v", p)
	}
	one := []time.Duration{5 * time.Millisecond}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if p := percentile(one, q); p != one[0] {
			t.Errorf("percentile(one, %v) = %v", q, p)
		}
	}
}

// TestDispatchReachesHighQPS: the catch-up dispatcher must hit targets
// far beyond one request per millisecond tick (the old ticker-per-request
// design capped out at ~1k/s).
func TestDispatchReachesHighQPS(t *testing.T) {
	offered, shed := dispatch(20000, 200*time.Millisecond, func() bool { return true })
	if shed != 0 {
		t.Fatalf("shed %d with an always-accepting sink", shed)
	}
	if offered < 2000 {
		t.Fatalf("offered %d requests at 20k qps over 200ms, want thousands", offered)
	}
}

func TestPairSources(t *testing.T) {
	order := 48
	perm := make([]int, order)
	for i := range perm {
		perm[i] = (i + 7) % order
	}
	next := makePairSource("permutation", nil, perm, order)
	seen := map[[2]int]bool{}
	for i := 0; i < 2*order; i++ {
		p := next()
		if p[0] == p[1] {
			t.Fatalf("self pair %v", p)
		}
		seen[p] = true
	}
	// The second lap repeats the first: exactly `order` distinct pairs.
	if len(seen) != order {
		t.Errorf("permutation mix produced %d distinct pairs, want %d", len(seen), order)
	}
}
