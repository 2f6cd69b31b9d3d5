package hbserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestRouteEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(2, 3)
	u, v := 0, 95
	code, body := get(t, fmt.Sprintf("%s/route?m=2&n=3&u=%d&v=%d", ts.URL, u, v))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res routeResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Distance != hb.Distance(u, v) {
		t.Errorf("distance %d, want %d", res.Distance, hb.Distance(u, v))
	}
	want := hb.Route(u, v)
	if len(res.Path) != len(want) {
		t.Fatalf("path %v, want %v", res.Path, want)
	}
	for i := range want {
		if res.Path[i] != want[i] {
			t.Fatalf("path %v, want %v", res.Path, want)
		}
	}
	if len(res.Moves) != res.Distance {
		t.Errorf("%d moves for distance %d", len(res.Moves), res.Distance)
	}
}

func TestRouteByteIdenticalUnderConcurrency(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/route?m=2&n=4&u=3&v=200"
	const goroutines = 32
	bodies := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}
	// A later request must also be byte-identical.
	_, again := get(t, url)
	if !bytes.Equal(bodies[0], again) {
		t.Fatalf("later response differs:\n%s\nvs\n%s", bodies[0], again)
	}
}

func TestPathsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(2, 3)
	u, v := 1, 77
	code, body := get(t, fmt.Sprintf("%s/paths?m=2&n=3&u=%d&v=%d", ts.URL, u, v))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res pathsResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != hb.Degree() {
		t.Errorf("count %d, want m+4 = %d", res.Count, hb.Degree())
	}
	if err := graph.VerifyDisjointPaths(hb, u, v, res.Paths); err != nil {
		t.Errorf("served paths fail verification: %v", err)
	}
}

func TestFaultRouteEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(2, 3)
	u, v := 0, 95
	// Fault every interior node of the optimal route to force a detour.
	opt := hb.Route(u, v)
	var faults []string
	faultSet := map[int]bool{}
	for _, x := range opt[1 : len(opt)-1] {
		faults = append(faults, fmt.Sprint(x))
		faultSet[x] = true
	}
	code, body := get(t, fmt.Sprintf("%s/faultroute?m=2&n=3&u=%d&v=%d&faults=%s",
		ts.URL, u, v, strings.Join(faults, ",")))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res faultRouteResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy == "" || res.Strategy == "optimal" {
		t.Errorf("strategy %q after faulting the whole optimal route", res.Strategy)
	}
	for _, x := range res.Path {
		if faultSet[x] {
			t.Errorf("served path crosses fault %d", x)
		}
	}
	if !res.WithinGuarantee && len(faults) <= hb.M()+3 {
		t.Errorf("within_guarantee false at %d faults", len(faults))
	}

	// Faulty endpoint: a 422, not a 500.
	code, _ = get(t, fmt.Sprintf("%s/faultroute?m=2&n=3&u=0&v=95&faults=0", ts.URL))
	if code != http.StatusUnprocessableEntity {
		t.Errorf("faulty endpoint gave %d, want 422", code)
	}
}

func TestBadInputs(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, path string
	}{
		{"non-integer node", "/route?m=2&n=3&u=zero&v=5"},
		{"out-of-range node", "/route?m=2&n=3&u=0&v=96"},
		{"negative node", "/paths?m=2&n=3&u=-1&v=5"},
		{"missing node", "/route?m=2&n=3&u=0"},
		{"bad dims", "/info?m=2&n=2"},
		{"huge dims", "/info?m=20&n=5"},
		{"non-integer dim", "/info?m=two&n=3"},
		{"bad fault id", "/faultroute?m=2&n=3&u=0&v=5&faults=1,x"},
		{"equal endpoints", "/paths?m=2&n=3&u=5&v=5"},
		{"conformance too big", "/conformance?m=3&n=7"},
	} {
		code, body := get(t, ts.URL+tc.path)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: body %q is not an error JSON", tc.name, body)
		}
	}
}

func TestInfoEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/info?m=2&n=3")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res infoResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	hb := core.MustNew(2, 3)
	if res.Order != hb.Order() || res.Edges != hb.EdgeCountFormula() ||
		res.Degree != hb.Degree() || res.Diameter != hb.DiameterFormula() ||
		res.Connectivity != hb.ConnectivityFormula() {
		t.Errorf("info %+v disagrees with core", res)
	}
}

func TestConformanceEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance run in -short")
	}
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/conformance?m=1&n=3")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var rep struct {
		Targets int `json:"targets"`
		Pass    int `json:"pass"`
		Fail    int `json:"fail"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Targets != 1 || rep.Fail != 0 || rep.Pass == 0 {
		t.Errorf("conformance report %+v", rep)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	get(t, ts.URL+"/route?m=2&n=3&u=0&v=95")
	get(t, ts.URL+"/route?m=2&n=3&u=0&v=95")
	get(t, ts.URL+"/route?m=2&n=3&u=0&v=bad")
	// /route is uncached; /paths carries the cache counters.
	get(t, ts.URL+"/paths?m=2&n=3&u=0&v=95")
	get(t, ts.URL+"/paths?m=2&n=3&u=0&v=95") // hit
	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	text := string(body)
	for _, line := range []string{
		`hbd_requests_total{endpoint="route",code="200"} 2`,
		`hbd_requests_total{endpoint="route",code="400"} 1`,
		`hbd_requests_total{endpoint="paths",code="200"} 2`,
		`hbd_route_cache_hits_total 1`,
		`hbd_route_cache_misses_total 1`,
		`hbd_request_seconds_count{endpoint="route"} 3`,
		"hbd_inflight_requests 0",
		"hbd_pool_instances 1",
		"hbd_up 1",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q:\n%s", line, text)
		}
	}
	if s.Metrics().InFlight() != 0 {
		t.Errorf("in-flight %d after requests finished", s.Metrics().InFlight())
	}
	total, non2xx := s.Metrics().Requests()
	if total != 5 || non2xx != 1 {
		t.Errorf("requests total=%d non2xx=%d, want 5,1", total, non2xx)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

// TestGracefulDrain holds a request open via the test hook, cancels the
// serve context, and asserts Serve waits for the request to finish and
// that the response still arrives intact.
func TestGracefulDrain(t *testing.T) {
	s := NewServer(Config{})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testHook = func(endpoint string) {
		if endpoint == "route" {
			entered <- struct{}{}
			<-release
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 5*time.Second) }()

	base := "http://" + ln.Addr().String()
	type reply struct {
		code int
		body []byte
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Get(base + "/route?m=2&n=3&u=0&v=95")
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		replies <- reply{code: resp.StatusCode, body: body}
	}()

	<-entered // the request is in flight
	cancel()  // begin shutdown while it is held open

	select {
	case err := <-served:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	r := <-replies
	if r.err != nil || r.code != 200 {
		t.Fatalf("drained request: code=%d err=%v", r.code, r.err)
	}
	var res routeResponse
	if err := json.Unmarshal(r.body, &res); err != nil {
		t.Fatalf("drained body %q: %v", r.body, err)
	}
}

// TestVerifyParam exercises verify=1 on /route and /paths: responses
// carry verified:true, /paths bodies are cached separately from
// unverified ones, and every sampled pair passes the independent BFS
// check.
func TestVerifyParam(t *testing.T) {
	s, ts := newTestServer(t)
	hb := core.MustNew(2, 3)
	for _, pair := range [][2]int{{0, 95}, {3, 40}, {17, 17}} {
		u, v := pair[0], pair[1]
		code, body := get(t, fmt.Sprintf("%s/route?m=2&n=3&u=%d&v=%d&verify=1", ts.URL, u, v))
		if code != 200 {
			t.Fatalf("route verify status %d: %s", code, body)
		}
		var res routeResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("route %d->%d not verified: %s", u, v, body)
		}
		if res.Distance != hb.Distance(u, v) {
			t.Errorf("route %d->%d distance %d, want %d", u, v, res.Distance, hb.Distance(u, v))
		}
	}
	code, body := get(t, ts.URL+"/paths?m=2&n=3&u=0&v=95&verify=true")
	if code != 200 {
		t.Fatalf("paths verify status %d: %s", code, body)
	}
	var pres pathsResponse
	if err := json.Unmarshal(body, &pres); err != nil {
		t.Fatal(err)
	}
	if !pres.Verified || pres.Count != hb.Degree() {
		t.Fatalf("paths verify: %s", body)
	}

	// Unverified body of the same query must come from a distinct cache
	// entry without the verified flag.
	_, plain := get(t, ts.URL+"/paths?m=2&n=3&u=0&v=95")
	var unres pathsResponse
	if err := json.Unmarshal(plain, &unres); err != nil {
		t.Fatal(err)
	}
	if unres.Verified {
		t.Fatalf("unverified query returned verified body: %s", plain)
	}
	if _, misses, _ := s.Cache().Stats(); misses != 2 {
		t.Fatalf("expected distinct cache entries per verify flag, misses = %d", misses)
	}
	// Both entries now answer from the cache, each with its own body.
	if _, again := get(t, ts.URL+"/paths?m=2&n=3&u=0&v=95&verify=true"); !bytes.Equal(again, body) {
		t.Fatalf("verified hit differs:\n%s\nvs\n%s", again, body)
	}
	if _, again := get(t, ts.URL+"/paths?m=2&n=3&u=0&v=95"); !bytes.Equal(again, plain) {
		t.Fatalf("unverified hit differs:\n%s\nvs\n%s", again, plain)
	}
	if hits, misses, _ := s.Cache().Stats(); hits != 2 || misses != 2 {
		t.Fatalf("cache hits=%d misses=%d after repeating both queries, want 2,2", hits, misses)
	}
}
