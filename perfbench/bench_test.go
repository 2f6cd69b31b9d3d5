package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hbserve"
)

// wire renders a stream exactly as it goes on the wire.
func wire(s *stream) []byte {
	var b bytes.Buffer
	for _, rs := range [][]request{s.first, s.reqs} {
		for i := range rs {
			b.WriteString(rs[i].target)
			b.WriteByte('\n')
			b.Write(rs[i].body)
		}
	}
	return b.Bytes()
}

func TestStreamDeterministic(t *testing.T) {
	build := map[string]func(int64) *stream{
		"route-mix":  newRouteMix,
		"paths-skew": newPathsSkew,
		"batch-fleet": func(seed int64) *stream {
			s, err := newBatchFleet(seed)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, f := range build {
		a, b, c := wire(f(7)), wire(f(7)), wire(f(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request stream", name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {5000, 99}, {500, 98}, {450, 97.77}, {20, 50}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The reported sample must leave at least minBeyond samples above it.
	for _, n := range []int{21, 37, 100, 333, 999, 1000, 1001, 12345} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		d := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > d.tail {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it, want >= %d", n, d.pct, beyond, minBeyond)
		}
		if d.n != n {
			t.Errorf("n=%d: summary counts %d samples", n, d.n)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{{start: 30, end: 60}, {start: 10, end: 40}, {start: 80, end: 120}, {start: 35, end: 50}}
	// Union inside the parent: [10,60) and [80,100) cover 70.
	if got := selfTime(parent, children); got != 30 {
		t.Fatalf("selfTime = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestNest(t *testing.T) {
	parents := []span{{start: 100, end: 200}, {start: 0, end: 50}}
	children := []span{{start: 10, end: 20}, {start: 120, end: 130}, {start: 150, end: 199}, {start: 60, end: 70}, {start: 190, end: 210}}
	kids, orphans := nest(parents, children)
	if orphans != 2 {
		t.Errorf("orphans = %d, want 2", orphans)
	}
	if len(kids[0]) != 1 || len(kids[1]) != 2 {
		t.Errorf("children per parent = %d, %d; want 1, 2", len(kids[0]), len(kids[1]))
	}
}

// answer asks an in-process daemon for target's answer.
func answer(t *testing.T, srv *hbserve.Server, method, target string, body []byte) []byte {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/x-hbbatch")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", target, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func TestValidatorsReject(t *testing.T) {
	d := dims{2, 3}
	hb := core.MustNew(d.M, d.N)
	c := newChecker(d)
	srv := hbserve.NewServer(hbserve.Config{})
	u, v := 0, hb.Order()-1

	route := &request{op: opRoute, inst: d, u: u, v: v, target: singleTarget(opRoute, d, u, v, nil)}
	body := answer(t, srv, http.MethodGet, route.target, nil)
	if err := c.check(route, nil, body); err != nil {
		t.Fatalf("valid route answer rejected: %v", err)
	}
	var ra map[string]any
	if err := json.Unmarshal(body, &ra); err != nil {
		t.Fatal(err)
	}
	path := ra["path"].([]any)
	path[1] = path[1].(float64) + 1 // corrupt one hop
	bad, _ := json.Marshal(ra)
	if err := c.check(route, nil, bad); err == nil {
		t.Error("route answer with a corrupted hop accepted")
	}

	paths := &request{op: opPaths, inst: d, u: u, v: v, target: singleTarget(opPaths, d, u, v, nil)}
	body = answer(t, srv, http.MethodGet, paths.target, nil)
	if err := c.check(paths, nil, body); err != nil {
		t.Fatalf("valid paths answer rejected: %v", err)
	}
	var pa map[string]any
	if err := json.Unmarshal(body, &pa); err != nil {
		t.Fatal(err)
	}
	ps := pa["paths"].([]any)
	longest := 0
	for i, p := range ps {
		if len(p.([]any)) > len(ps[longest].([]any)) {
			longest = i
		}
	}
	ps[(longest+1)%len(ps)] = ps[longest] // two paths now share every internal node
	bad, _ = json.Marshal(pa)
	if err := c.check(paths, nil, bad); err == nil {
		t.Error("paths answer with a node shared between two paths accepted")
	}

	src := []int{0, 1, 2, 3, 4, 5, 6, 7}
	dst := []int{95, 90, 80, 70, 60, 50, 40, 30}
	batch := &request{op: opBatch, inst: d, target: "/batch", src: src, dst: dst}
	batch.body, _ = hbserve.EncodeBatchBinRequest("route", d.M, d.N, nil, src, dst)
	body = answer(t, srv, http.MethodPost, "/batch", batch.body)
	if err := c.check(batch, nil, body); err != nil {
		t.Fatalf("valid batch answer rejected: %v", err)
	}
	short, _ := hbserve.EncodeBatchBinRequest("route", d.M, d.N, nil, src[:7], dst[:7])
	body = answer(t, srv, http.MethodPost, "/batch", short)
	if err := c.check(batch, nil, body); err == nil {
		t.Error("batch answer with a missing pair accepted")
	}
}

func TestNoCSweepDeterministic(t *testing.T) {
	stats := func() [3]float64 {
		s := &nocSim{hb: core.MustNew(nocHB.M, nocHB.N), seed: 3}
		run := &nocRun{}
		pts, err := s.pass()
		if err != nil {
			t.Fatal(err)
		}
		run.add(pts)
		if run.acct.failed != 0 {
			t.Fatalf("noc pass failed validation: %v", run.acct.errs)
		}
		top, low := run.ref[len(nocRates)-1], run.ref[0]
		return [3]float64{float64(top.Delivered), top.Throughput, low.AvgLatency}
	}
	if a, b := stats(), stats(); a != b {
		t.Fatalf("same seed, different sim statistics: %v vs %v", a, b)
	}
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, want map[string]string) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(want))
		}
		for _, m := range listed {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json lists %s in %q, the benchmark reports %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, e2eUnits)
	same("per_layer", bj.PerLayer, layerUnits)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// TestPhasesAgainstDaemon drives a real in-process daemon through a
// closed-loop and an open-loop phase from two workers; run it with
// -race to check the generator's sharing.
func TestPhasesAgainstDaemon(t *testing.T) {
	w := &serving{s: newRouteMix(5), insts: servedHB, rate: 500}
	b := newBench(w)
	defer b.close()
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	_, ct := b.phase(phaseSpec{workers: genWorkers, dur: 200 * time.Millisecond})
	_, ot := b.phase(phaseSpec{workers: genWorkers, dur: 200 * time.Millisecond, rate: w.rate})
	if b.acct.failed != 0 || ct.okPairs == 0 || len(ot.latencyMs) == 0 {
		t.Fatalf("failed %d of %d; ceiling answered %d pairs, open loop timed %d: %v",
			b.acct.failed, b.acct.attempted, ct.okPairs, len(ot.latencyMs), b.acct.errs)
	}
	if peak := b.f.front.peak.Load(); peak > genWorkers {
		t.Fatalf("generator opened %d connections, want at most %d", peak, genWorkers)
	}
}
