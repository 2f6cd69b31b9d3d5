package hbserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// These tests pin the headline serving claim of the implicit tier: a
// cold daemon answers /route, /paths (verified), /faultroute and
// /estimate on HB(10,10) — order 10·2^20 ≈ 10.5M, far above the dense
// cap — without ever materialising an adjacency. Queries stay in the
// label-arithmetic fast path, so the whole file runs in well under a
// second despite the instance size.

const giantOrder = 10 << 20 // HB(10,10)

func giantURL(ts *httptest.Server, path string) string {
	return fmt.Sprintf("%s%s&m=10&n=10", ts.URL, path)
}

func TestImplicitServesGiantRoute(t *testing.T) {
	_, ts := newTestServer(t)
	imp := core.MustNewImplicit(10, 10)
	u, v := 12345, giantOrder-678
	code, body := get(t, giantURL(ts, fmt.Sprintf("/route?u=%d&v=%d&verify=1", u, v)))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res routeResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verify=1 response not marked verified")
	}
	if want := imp.Distance(u, v); res.Distance != want {
		t.Errorf("distance %d, want %d", res.Distance, want)
	}
	if len(res.Path) != res.Distance+1 || res.Path[0] != u || res.Path[len(res.Path)-1] != v {
		t.Errorf("path endpoints/length wrong: %d vertices for distance %d", len(res.Path), res.Distance)
	}
}

func TestImplicitServesGiantPaths(t *testing.T) {
	_, ts := newTestServer(t)
	u, v := 999, 7_654_321
	code, body := get(t, giantURL(ts, fmt.Sprintf("/paths?u=%d&v=%d&verify=1", u, v)))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res pathsResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verify=1 response not marked verified")
	}
	if res.Count != 14 { // m+4 (Theorem 5)
		t.Errorf("count %d, want 14", res.Count)
	}
}

func TestImplicitServesGiantFaultRoute(t *testing.T) {
	_, ts := newTestServer(t)
	imp := core.MustNewImplicit(10, 10)
	u, v := 0, giantOrder-1
	// Knock out the first hop of the fault-free optimal route; the
	// router must deliver around it.
	direct := imp.Route(u, v)
	code, body := get(t, giantURL(ts, fmt.Sprintf("/faultroute?u=%d&v=%d&faults=%d", u, v, direct[1])))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res faultRouteResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Path) == 0 || res.Path[0] != u || res.Path[len(res.Path)-1] != v {
		t.Fatalf("path endpoints wrong: %v", res.Path)
	}
	for _, x := range res.Path {
		if x == direct[1] {
			t.Errorf("path traverses the faulty vertex %d", direct[1])
		}
	}
	if !res.WithinGuarantee {
		t.Error("1 fault on a 14-connected instance should be within guarantee")
	}
}

// TestImplicitServesGiantEstimate: HB(10,10) gets the exact answer:
// diameter 25 = every eccentricity, a histogram over all Order²
// ordered pairs, and the retired sampler parameters are ignored.
func TestImplicitServesGiantEstimate(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, giantURL(ts, "/estimate?"))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res estimateResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Order != giantOrder {
		t.Errorf("exact=%v order=%d, want exact over %d nodes", res.Exact, res.Order, giantOrder)
	}
	if res.Diameter != 25 || res.DiameterFormula != 25 || res.EccMin != 25 || res.EccMax != 25 {
		t.Errorf("diameter %d formula %d ecc [%d,%d], want 25 throughout",
			res.Diameter, res.DiameterFormula, res.EccMin, res.EccMax)
	}
	var sum int64
	for _, c := range res.Hist {
		sum += c
	}
	if want := int64(giantOrder) * giantOrder; sum != want || len(res.Hist) != 26 {
		t.Errorf("hist sums to %d over %d distances, want Order² = %d over 26", sum, len(res.Hist), want)
	}
	if res.MeanDistance <= 1 || res.MeanDistance >= 25 || len(res.Fractions) != 26 {
		t.Errorf("mean distance %g, %d fractions", res.MeanDistance, len(res.Fractions))
	}
	_, again := get(t, giantURL(ts, "/estimate?samples=512&seed=7&live=1&scan=1"))
	if string(again) != string(body) {
		t.Errorf("retired sampler parameters changed the body:\n%s\nvs\n%s", again, body)
	}
}

// TestEstimateEndpointSmall holds /estimate on HB(2,3) to a
// bit-parallel all-sources sweep of the materialised graph.
func TestEstimateEndpointSmall(t *testing.T) {
	_, ts := newTestServer(t)
	sweep := core.MustNew(2, 3).Dense().AllSourcesBits(nil, 0)
	code, body := get(t, fmt.Sprintf("%s/estimate?m=2&n=3", ts.URL))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res estimateResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Hist, sweep.Hist) {
		t.Errorf("hist %v, all-sources sweep %v", res.Hist, sweep.Hist)
	}
	lo, hi := slices.Min(sweep.Ecc), slices.Max(sweep.Ecc)
	if res.EccMin != int(lo) || res.EccMax != int(hi) || res.Diameter != int(hi) {
		t.Errorf("diameter %d ecc [%d,%d], sweep ecc [%d,%d]", res.Diameter, res.EccMin, res.EccMax, lo, hi)
	}
}

// TestEstimateConcurrentCold: eight simultaneous first requests for an
// n no other test touches share one factor search and get one body.
func TestEstimateConcurrentCold(t *testing.T) {
	_, ts := newTestServer(t)
	bodies := make([][]byte, 8)
	codes := make([]int, len(bodies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/estimate?m=3&n=11")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range bodies {
		if codes[i] != 200 || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: status %d body %s\nrequest 0: %s", i, codes[i], bodies[i], bodies[0])
		}
	}
}
