package hbserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultroute"
)

// This file keeps the reflection rendering the single-query handlers
// used before the append encoders, as the oracle of a golden
// differential: url.Values parsing, response structs marshalled by
// encoding/json, a fresh fault-set diff on every /faultroute request.
// The live handlers must answer every query with the oracle's status,
// Content-Type and bytes.

type routeResponse struct {
	M        int      `json:"m"`
	N        int      `json:"n"`
	U        int      `json:"u"`
	V        int      `json:"v"`
	Distance int      `json:"distance"`
	Path     []int    `json:"path"`
	Moves    []string `json:"moves"`
	Verified bool     `json:"verified,omitempty"`
}

type pathsResponse struct {
	M        int     `json:"m"`
	N        int     `json:"n"`
	U        int     `json:"u"`
	V        int     `json:"v"`
	Count    int     `json:"count"`
	Paths    [][]int `json:"paths"`
	Verified bool    `json:"verified,omitempty"`
}

type faultRouteResponse struct {
	M               int    `json:"m"`
	N               int    `json:"n"`
	U               int    `json:"u"`
	V               int    `json:"v"`
	Faults          []int  `json:"faults"`
	WithinGuarantee bool   `json:"within_guarantee"`
	Strategy        string `json:"strategy"`
	Path            []int  `json:"path"`
}

// oracle answers /route, /paths and /faultroute the reflective way. It
// shares the server's pool (same backends) and verifiers, and keeps
// its own fault routers, which see the same fault-set sequence as the
// server's.
type oracle struct {
	s       *Server
	routers map[Dims]*faultroute.Router
}

func (o *oracle) serve(target string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, target, nil)
	w := httptest.NewRecorder()
	var err error
	switch r.URL.Path {
	case "/route":
		err = o.route(w, r.URL.Query())
	case "/paths":
		err = o.paths(w, r.URL.Query())
	case "/faultroute":
		err = o.faultRoute(w, r.URL.Query())
	default:
		panic("oracle: no endpoint " + r.URL.Path)
	}
	if err != nil {
		writeErr(w, err)
	}
	return w
}

func oracleInt(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

func oracleNode(q url.Values, top core.Topology, name string) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, badRequest("missing node parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("node parameter %s=%q is not an integer", name, raw)
	}
	if !top.ValidNode(v) {
		return 0, badRequest("node %s=%d out of range [0,%d)", name, v, top.Order())
	}
	return v, nil
}

func (o *oracle) pair(q url.Values) (top core.Topology, d Dims, u, v int, err error) {
	if d.M, err = oracleInt(q, "m", 2); err != nil {
		return
	}
	if d.N, err = oracleInt(q, "n", 3); err != nil {
		return
	}
	if top, err = o.s.pool.Get(d); err != nil {
		err = badRequest("%v", err)
		return
	}
	if u, err = oracleNode(q, top, "u"); err != nil {
		return
	}
	v, err = oracleNode(q, top, "v")
	return
}

func oracleVerify(q url.Values) bool {
	raw := q.Get("verify")
	return raw == "1" || raw == "true"
}

func oracleWrite(w http.ResponseWriter, v any) error {
	body, err := marshalBody(v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", ctJSON)
	w.Write(body)
	return nil
}

func (o *oracle) route(w http.ResponseWriter, q url.Values) error {
	top, d, u, v, err := o.pair(q)
	if err != nil {
		return err
	}
	moves := top.RouteMoves(u, v)
	names := make([]string, len(moves))
	for i, mv := range moves {
		names[i] = mv.String()
	}
	resp := routeResponse{M: d.M, N: d.N, U: u, V: v, Distance: len(moves), Path: top.Route(u, v), Moves: names}
	if oracleVerify(q) {
		if err := o.s.verifyRoute(top, u, v, resp.Path); err != nil {
			return err
		}
		resp.Verified = true
	}
	return oracleWrite(w, resp)
}

func (o *oracle) paths(w http.ResponseWriter, q url.Values) error {
	top, d, u, v, err := o.pair(q)
	if err != nil {
		return err
	}
	if u == v {
		return badRequest("disjoint paths need distinct endpoints (u=v=%d)", u)
	}
	paths, err := top.DisjointPaths(u, v)
	if err != nil {
		return err
	}
	resp := pathsResponse{M: d.M, N: d.N, U: u, V: v, Count: len(paths), Paths: paths}
	if oracleVerify(q) {
		if err := o.s.verifyPaths(top, u, v, paths); err != nil {
			return err
		}
		resp.Verified = true
	}
	return oracleWrite(w, resp)
}

func (o *oracle) faultRoute(w http.ResponseWriter, q url.Values) error {
	top, d, u, v, err := o.pair(q)
	if err != nil {
		return err
	}
	faults := []int{}
	if raw := q.Get("faults"); raw != "" {
		for _, p := range strings.Split(raw, ",") {
			f, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return badRequest("fault id %q is not an integer", p)
			}
			if !top.ValidNode(f) {
				return badRequest("fault %d out of range [0,%d)", f, top.Order())
			}
			faults = append(faults, f)
		}
		sort.Ints(faults)
		j := 0
		for i, f := range faults {
			if i == 0 || f != faults[j-1] {
				faults[j] = f
				j++
			}
		}
		faults = faults[:j]
	}
	fr, ok := o.routers[d]
	if !ok {
		if fr, err = faultroute.New(top, nil); err != nil {
			return badRequest("%v", err)
		}
		o.routers[d] = fr
	}
	if err := fr.SetFaults(faults); err != nil {
		return badRequest("%v", err)
	}
	path, err := fr.Route(u, v)
	if err != nil {
		return &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return oracleWrite(w, faultRouteResponse{
		M: d.M, N: d.N, U: u, V: v,
		Faults:          faults,
		WithinGuarantee: fr.WithinGuarantee(),
		Strategy:        fr.LastStrategy(),
		Path:            path,
	})
}

// goldenQueries lists the sweep for one instance: sampled pairs, u=v,
// the extreme ids, fault sets that force detours, touch an endpoint or
// cut u off, and malformed, out-of-range and oddly spelled parameters.
func goldenQueries(top core.Topology, d Dims, rng *rand.Rand, pairs int) []string {
	dims := fmt.Sprintf("m=%d&n=%d", d.M, d.N)
	last := top.Order() - 1
	pts := [][2]int{{0, last}, {7 % top.Order(), 7 % top.Order()}}
	for i := 0; i < pairs; i++ {
		pts = append(pts, [2]int{rng.Intn(top.Order()), rng.Intn(top.Order())})
	}
	var qs []string
	for _, p := range pts {
		u, v := p[0], p[1]
		for _, verify := range []string{"", "&verify=1"} {
			for _, ep := range []string{"/route", "/paths"} {
				qs = append(qs, fmt.Sprintf("%s?%s&u=%d&v=%d%s", ep, dims, u, v, verify))
			}
		}
		route := top.Route(u, v)
		interior := []string{}
		for i := 1; i < len(route)-1; i++ {
			interior = append(interior, strconv.Itoa(route[i]))
		}
		cut := []string{}
		for _, x := range top.AppendNeighbors(u, nil) {
			cut = append(cut, strconv.Itoa(x))
		}
		for _, faults := range []string{
			"",
			"&faults=",
			"&faults=" + strings.Join(interior, ","),
			"&faults=" + strings.Join(interior, ","), // unchanged set: the diff is skipped
			fmt.Sprintf("&faults=%d,%d,%d", last, last, (u+v)%top.Order()),
			fmt.Sprintf("&faults=%d", u),
			"&faults=" + strings.Join(cut, ","),
			"&verify=1",
		} {
			qs = append(qs, fmt.Sprintf("/faultroute?%s&u=%d&v=%d%s", dims, u, v, faults))
		}
	}
	for _, ep := range []string{"/route", "/paths", "/faultroute"} {
		for _, bad := range []string{
			fmt.Sprintf("%s&u=0&v=%d", dims, top.Order()),
			dims + "&u=-1&v=1",
			dims + "&u=0",
			dims + "&v=1",
			dims + "&u=zero&v=1",
			dims + "&u=1&v=0x2",
			"m=x&n=3&u=0&v=1",
			fmt.Sprintf("m=%d&n=2&u=0&v=1", d.M),
			"m=20&n=5&u=0&v=1",
			dims + "&u=%31&v=%32",
			dims + "&u=1&u=2&v=3",
			dims + ";u=1&u=2&v=3",
			dims + "&u=+1&v=2",
			dims + "&u=1&v=2&verify=true",
			dims + "&u=1&v=2&verify=yes",
			dims + "&u=1&v=2&faults=1,x",
			dims + "&u=1&v=2&faults=,",
			dims + "&u=1&v=2&faults=%203,%204",
			dims + "&u=1&v=2&faults=-1",
			"u=1&v=2",
		} {
			qs = append(qs, ep+"?"+bad)
		}
	}
	return qs
}

// TestGoldenSingleQuery sweeps dims × endpoints × verify (plus u=v,
// out-of-range and malformed parameters) and asserts every status,
// Content-Type and body is byte-identical to the reflection oracle.
// Each query is sent twice, so /paths answers from the cache and
// /faultroute repeats its fault set the second time.
func TestGoldenSingleQuery(t *testing.T) {
	s := NewServer(Config{})
	h := s.Handler()
	o := &oracle{s: s, routers: make(map[Dims]*faultroute.Router)}
	rng := rand.New(rand.NewSource(12))
	for _, d := range []Dims{{0, 3}, {2, 3}, {3, 8}, {4, 4}, {10, 10}} {
		top, err := s.pool.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 12
		if d.M == 10 || testing.Short() {
			pairs = 3
		}
		for _, target := range goldenQueries(top, d, rng, pairs) {
			for round := 0; round < 2; round++ {
				want := o.serve(target)
				got := httptest.NewRecorder()
				h.ServeHTTP(got, httptest.NewRequest(http.MethodGet, target, nil))
				if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("%s (round %d):\n got %d %s\nwant %d %s", target, round, got.Code, got.Body, want.Code, want.Body)
				}
				if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
					t.Fatalf("%s: Content-Type %q, want %q", target, g, w)
				}
				if c := got.Header().Get("X-Cache"); strings.HasPrefix(target, "/route") && c != "" {
					t.Fatalf("%s: /route sent X-Cache %q", target, c)
				}
			}
		}
	}
	if hits, _, _ := s.Cache().Stats(); hits == 0 {
		t.Error("repeated /paths queries never hit the cache")
	}
}

// FuzzQueryGet holds the single-pass query reader to url.ParseQuery on
// arbitrary raw queries: escapes, '+', repeated keys, empty pairs and
// ';'-separated keys (which ParseQuery drops).
func FuzzQueryGet(f *testing.F) {
	for _, seed := range [][2]string{
		{"m=2&n=3&u=0&v=5", "u"},
		{"u=1&u=2", "u"},
		{"u=%31&v=%zz", "u"},
		{"%75=1&u=2", "u"},
		{"a=1;u=2&u=3", "u"},
		{"u=+1", "u"},
		{"=x&&u", ""},
		{"&&u=1=2&", "u"},
		{"u", "u"},
		{"faults=1,2,%203", "faults"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		values, _ := url.ParseQuery(raw)
		if got, want := parseQuery(raw).get(name), values.Get(name); got != want {
			t.Fatalf("parseQuery(%q).get(%q) = %q, want %q", raw, name, got, want)
		}
	})
}

// stubWriter is a reusable ResponseWriter for allocation counts: its
// header map and counters are recycled across requests.
type stubWriter struct {
	h    http.Header
	code int
	body []byte
}

func newStubWriter() *stubWriter { return &stubWriter{h: make(http.Header)} }

func (w *stubWriter) Header() http.Header { return w.h }

func (w *stubWriter) WriteHeader(code int) { w.code = code }

func (w *stubWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *stubWriter) reset() {
	w.code = 0
	w.body = w.body[:0]
}

// serveStub runs one request through h into w and fails on a non-200.
func serveStub(tb testing.TB, h http.Handler, w *stubWriter, r *http.Request) {
	w.reset()
	h.ServeHTTP(w, r)
	if w.code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", r.URL, w.code, w.body)
	}
}

// faultRouteAllocsBefore is what one /faultroute request allocated
// before the append encoders, on an unchanged HB(3,8) fault set
// (measured with this test's harness at that revision).
const faultRouteAllocsBefore = 51

// TestSingleQueryAllocs is the allocation gate of the single-query
// path, measured through the daemon's root handler with a reusable
// writer.
func TestSingleQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	h := NewServer(Config{}).Handler()
	w := newStubWriter()
	for _, target := range []string{
		"/route?m=3&n=8&u=5&v=16000",
		"/route?m=10&n=10&u=12345&v=10485000",
	} {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		serveStub(t, h, w, r)
		if n := testing.AllocsPerRun(200, func() { serveStub(t, h, w, r) }); n > 2 {
			t.Errorf("%s allocates %v objects per request, want <= 2", target, n)
		}
	}
	r := httptest.NewRequest(http.MethodGet, "/faultroute?m=3&n=8&u=5&v=16000&faults=6,700,9000", nil)
	serveStub(t, h, w, r)
	if n := testing.AllocsPerRun(200, func() { serveStub(t, h, w, r) }); n > faultRouteAllocsBefore {
		t.Errorf("/faultroute on an unchanged fault set allocates %v objects, want <= %d", n, faultRouteAllocsBefore)
	}
}

// batchGoldenDigests pins every /batch answer of TestBatchGolden: one
// SHA-256 per dims and op over the status, Content-Type and body of
// the JSON then the binary answer, which the daemon and the router
// must both produce, and one per path over the malformed bodies. They
// were recorded before the binary codec moved into wire.go and the
// /batch response cache was removed.
var batchGoldenDigests = map[string]string{
	"2x3/dist":         "4895ea43ca0cc8165ee7f33005c46e7faa5582580296dd0cf3bfa5697f550123",
	"2x3/route":        "cceae99d820c340cac769256df211ca99b6aff8c09408d92bba63965f57b37c7",
	"2x3/paths":        "706534be79553431e1072f40a882fc339c3b1ca4e2772e129b1a2ffec9b1742d",
	"2x3/faultroute":   "6efbfc0eb1af3fe3beffc045a9e47e6fccf5e90ea442c8c8ad8ceddedd701a28",
	"3x8/dist":         "0c33d581bf792a16d12d0b66b6c4e05d9a81c5e8fa7e49f5fb46ad873726439e",
	"3x8/route":        "a1e55fd4e9ffe6e0cd7fa85052e18c32db88dbce04352eb4e07d4ebce36874d6",
	"3x8/paths":        "219919d2a3df78bc900a2ba4cbdc8fb5a3e5d0cab5be8ba9678ed5bfe6a6032e",
	"3x8/faultroute":   "218c0f6251b6c850bf4223df9344d4bd6233e17527e7dc5cc4df686edd8054a4",
	"10x10/dist":       "0e10746ef58ee7b692febf53da3b582a15d32d5af3278f5db2ede3bcb0e251bb",
	"10x10/route":      "945f6c73842d20ca85d3e36ee0725c494c539b8df83c5f67cf31d6922e91d4e9",
	"10x10/paths":      "ac5c83ad279564f4602a4f312cca8dd3ff956a40295c74183cb0246670721daa",
	"10x10/faultroute": "ebd14ba3968dfcc1682151d383bc3e429ab60845256ac1a6798c3a39d379637c",
	"direct/malformed": "f60428e6946f37bddfa2a7d3e3734d9d76406ecb2b22d250bf1c94686b3435f8",
	"router/malformed": "2487b6b05d85eed4476753ccebd6646ea4c4205c576eb2ca9bf0e1f7befb94b1",
}

// batchGoldenMalformed is the malformed-body sweep: every case of
// TestBatchMalformed and TestRouterBatchMalformed400, plus a binary
// fault of 0xFFFFFFFF, whose error text shows the fault column is read
// as unsigned.
func batchGoldenMalformed(t testing.TB) [][2]string {
	good := binBatchBody(batchOpRoute, 2, 3, nil, []int{0, 1}, []int{5, 9})
	patch := func(at int, put func(b []byte)) string {
		b := append([]byte(nil), good...)
		put(b[at:])
		return string(b)
	}
	bin, err := EncodeBatchBinRequest("route", 2, 3, nil, []int{0, 1}, []int{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	return [][2]string{
		{ctJSON, `{"src": [1,`},
		{ctJSON, `{"op":"teleport","src":[1],"dst":[2]}`},
		{ctJSON, `{"src":[1,2],"dst":[3]}`},
		{ctJSON, `{"op":"route","faults":[1],"src":[1],"dst":[2]}`},
		{ctJSON, `{"op":"faultroute","faults":[99999],"src":[1],"dst":[2]}`},
		{ctJSON, `{"m":-3,"n":1,"src":[1],"dst":[2]}`},
		{"text/csv", "1,2"},
		{ctBatchBin, ""},
		{ctBatchBin, string(good[:10])},
		{ctBatchBin, patch(4, func(b []byte) { binary.LittleEndian.PutUint32(b, 0xDEADBEEF) })},
		{ctBatchBin, patch(8, func(b []byte) { binary.LittleEndian.PutUint16(b, batchBinVersion+7) })},
		{ctBatchBin, patch(10, func(b []byte) { b[0] = 42 })},
		{ctBatchBin, string(good[:len(good)-3])},
		{ctBatchBin, string(good) + "\xff"},
		{ctBatchBin, patch(20, func(b []byte) { binary.LittleEndian.PutUint32(b, 3) })},
		{ctBatchBin, string(binBatchBody(batchOpFaultRoute, 2, 3, []int{0xFFFFFFFF}, []int{0, 1}, []int{5, 9}))},
		{ctBatchBin, string(bin[:12])},
		{ctBatchBin, "HBB1"},
		{ctJSON, `{"n":3,"op":"route","src":[0],"dst":[9]}`},
		{ctJSON, `{"m":2,"op":"route","src":[0],"dst":[9]}`},
		{ctJSON, `{"m":-2,"n":3,"op":"route","src":[0],"dst":[9]}`},
		{ctJSON, `{"m":2,"n":-3,"op":"route","src":[0],"dst":[9]}`},
		{"application/octet-stream", string(bin)},
		{ctJSON, `{"m":2,"n":3,`},
	}
}

// TestBatchGolden sweeps dims × op × codec over /batch, each body sent
// straight to a daemon and scattered by a router over 3 replicas, and
// requires every status, Content-Type and body to hash to its pinned
// digest. Malformed bodies hold at most 2 pairs, below the router's
// scatter threshold, so their error bodies come from one replica and
// carry no replica address.
func TestBatchGolden(t *testing.T) {
	_, direct := newTestServer(t)
	fleet := newTestFleet(t, 3)
	_, router := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs(), ScatterMinPairs: 3})
	paths := []struct{ name, url string }{{"direct", direct.URL}, {"router", router.URL}}

	hashPost := func(h hash.Hash, base, ct string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/batch", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d\n%s\n%d\n", resp.StatusCode, resp.Header.Get("Content-Type"), len(raw))
		h.Write(raw)
		return resp
	}
	check := func(path, key string, h hash.Hash) {
		t.Helper()
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != batchGoldenDigests[key] {
			t.Errorf("%s: digest mismatch:\n\t%q: %q,", path, key, got)
		}
	}

	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct {
		d      Dims
		pairs  int
		faults []int
	}{
		{Dims{2, 3}, 40, []int{5, 17}},
		{Dims{3, 8}, 24, []int{6, 700, 9000}},
		{Dims{10, 10}, 8, []int{12345, 999, 10485000}},
	} {
		order := core.ImplicitOf(core.MustNew(tc.d.M, tc.d.N)).Order()
		var src, dst []int
		for i := 0; i < tc.pairs; i++ {
			src = append(src, rng.Intn(order))
			dst = append(dst, rng.Intn(order))
		}
		src = append(src, 3, order+5, tc.faults[0])
		dst = append(dst, 3, 0, 1) // equal pair, bad src, faulty src
		for _, op := range []string{"dist", "route", "paths", "faultroute"} {
			var faults []int
			if op == "faultroute" {
				faults = tc.faults
			}
			for _, p := range paths {
				h := sha256.New()
				for _, codec := range []string{"json", "bin"} {
					ct, body := scatterBody(t, op, codec, tc.d.M, tc.d.N, faults, src, dst)
					resp := hashPost(h, p.url, ct, body)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s %v %s/%s: status %d", p.name, tc.d, op, codec, resp.StatusCode)
					}
					if p.name == "router" && resp.Header.Get("X-Scatter") == "" {
						t.Fatalf("router %v %s/%s: batch was not scattered", tc.d, op, codec)
					}
				}
				check(p.name, fmt.Sprintf("%dx%d/%s", tc.d.M, tc.d.N, op), h)
			}
		}
	}
	for _, p := range paths {
		h := sha256.New()
		for _, c := range batchGoldenMalformed(t) {
			hashPost(h, p.url, c[0], []byte(c[1]))
		}
		check(p.name, p.name+"/malformed", h)
	}
}

// estimateGoldenDigests pins /estimate on every dims of at most 2^12
// nodes: one SHA-256 per dims over the status, Content-Type and body.
// They were recorded from bodies rendered out of precomputed all-pairs
// sweeps, before /estimate computed its answer from the product
// structure.
var estimateGoldenDigests = map[string]string{
	"0x3": "4f054a5db1657ef1216e9b2263cf49fd440a834ca1cc4028c68059b5377c45a6",
	"1x3": "920a9e3a4a27cf2a07cd7e93e172d5380879fda642986d32e488ddded1fe7826",
	"2x3": "e38043daf7ec95de3716b0c83e700ddee805c874d145fb28e950f6934c1a47aa",
	"3x3": "d1a0bcab624fe1f5585391e8b5eee882de7f6b3b1c7bd3f2ff33efaff90d81fa",
	"4x3": "39cd7f615a3f41a81be39975786fc40c746aac9a90ddc02a8c167cb00229196a",
	"5x3": "fc9c8499db748aa58ef977d47d183f541c76daa93920e79aff471e04263c5b9b",
	"6x3": "50a0a329613fa0fee3563a831398dd5ffdf967666c8c2f1da84b7f039ff4bed5",
	"7x3": "38b79cfd23e675d38cd8fa5aef51fb013487a8efe65052f7304b0f93ff764f0d",
	"0x4": "d2fb3b6227e23c6e845818b1de79cde1dbe0c766c6aa5796d7e6446771da061f",
	"1x4": "2b320a00dff29279457fedb182bad498ab09ca9fd3a3ec74af3357916152dc09",
	"2x4": "472e7cdc4b66782f58458ce33d6d399c8d63b3860f4aca3d3519196cad3ef916",
	"3x4": "b3c595f71f40d58c387494dc81d77892605a04cc1f532980a4b268ce394f1744",
	"4x4": "a12f445248d5416c966d3fed7c0f82a3989779c14f1033d2c39a5283d0910f5a",
	"5x4": "05b78c75ed43e57508af7b21d4cc2d69c38c4571555cf87d6aa73bcfec6f15a4",
	"6x4": "89b7195e8064bf1b3308bc9de2d0b83e719ca3cb41c47ef260f9157cb55a196f",
	"0x5": "9a44102c9b389069d383bc832725cff20847297ee0c694e19b94d98af0954ec3",
	"1x5": "3313054eae9f592d4907ec4ec6389dee48fab49dad0b30f4738e19e85d303896",
	"2x5": "87fa967ae937743b552bdb0b0d23fa267e0e40e755e7e71c7c1fa2253c9bbc14",
	"3x5": "e26fd83f55cd4e8dcc77055404eea61f55163b458e11cf1882cf44317e21d130",
	"4x5": "b6689b48bfafc0c0114ba6aac4b9824f46dee528a7d40301bff07428889a0430",
	"0x6": "1a3a56460d7edf336aad1317791731a87fa07697a47555f889bac118262f2e49",
	"1x6": "690013bf2177237fdac661307230a0edf8bd415f8c3fbb000b09dd5f7819441f",
	"2x6": "1c4d0698946e94fe176f7c74bc8d8453911e08ef47d9cbb85a7de47097e0c3b0",
	"3x6": "92216d2d29e9e04a057c48a40086353e22b05af438fda0e235117dc77dadc8bc",
	"0x7": "e68de0acc454747874b5b0badd537b6b43caa5496e19c52b828c60aa6c45d758",
	"1x7": "56a52a4e75c387a36ae791172f12c01bcf799103bdf68dbbceceb57865216fb6",
	"2x7": "7c6f3d075923de9c669f5151be8dd7904c51d24413025a9f5bcd78c32202ed01",
	"0x8": "787888776e34ba5e23227379cf2840da80977c664b0daea2fe05da796b0c5797",
	"1x8": "47c75d0b828c4f9e318f3c5707b85e04df8a1f698b04b3f2f6d4fee116106e3f",
}

// TestEstimateGolden requires /estimate on every pinned dims to hash
// to its digest, byte for byte.
func TestEstimateGolden(t *testing.T) {
	_, ts := newTestServer(t)
	for key, want := range estimateGoldenDigests {
		var m, n int
		if _, err := fmt.Sscanf(key, "%dx%d", &m, &n); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/estimate?m=%d&n=%d", ts.URL, m, n))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%d\n%s\n%d\n", resp.StatusCode, resp.Header.Get("Content-Type"), len(raw))
		h.Write(raw)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("/estimate %s: digest mismatch:\n\t%q: %q,\nbody %s", key, key, got, raw)
		}
	}
}
