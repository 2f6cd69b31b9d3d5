// Package hbserve is the topology-query service behind cmd/hbd: a
// long-lived HTTP/JSON daemon answering routing questions about
// HB(m,n) instances, shaped like an inference-serving stack. Queries
// are cheap by construction (Theorems 3 and 5 make routes and the m+4
// disjoint paths label-computable), so the serving problem is the
// classic one — amortise instance construction across requests (Pool),
// keep the per-request path near the cost of the kernel, memoise what
// is expensive to recompute (RouteCache, singleflight), observe
// everything (Metrics, /metrics), and drain cleanly on shutdown.
//
// /route is recomputed on every request: the query is read once from
// the raw query string, the route comes from the allocation-free
// AppendRoute kernel, and the body is appended into a pooled buffer, so
// a recompute costs less than a cache lookup did. /batch is recomputed
// too: a pair costs about a microsecond to answer, and a response cache
// in front of it never hit under batch load. /paths (a cold case-3
// answer costs milliseconds) is rendered once and cached as bytes,
// marked by an X-Cache header; identical queries return byte-identical
// bodies on every endpoint, no matter how they interleave. /faultroute
// takes a caller-supplied fault set and is deliberately uncached (fault
// sets are high-cardinality); /conformance re-runs the paper's
// invariant registry on demand; /estimate answers the exact distance
// distribution of any served instance from the product structure.
//
// Every instance is served by the pure label-arithmetic implicit
// backend (core.Implicit), so a cold hbd answers /route, /paths and
// /faultroute on anything from HB(0,3) to HB(10,10) (~10.5M nodes)
// without materialising the product graph; a case-3 /paths answer runs
// Menger on a small window around the analytic candidates. verify=1
// picks its oracle by order: up to denseVerifyMaxOrder it replays a
// BFS over the lazily built dense adjacency, and above it the check is
// label-arithmetic too — per-hop neighborhood membership plus the
// analytic distance, and graph.VerifyDisjointPaths for path
// certificates.
package hbserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/faultroute"
	"repro/internal/graph"
)

// Server bundles the pool, cache and metrics behind an http.Handler.
type Server struct {
	pool    *Pool
	cache   *RouteCache
	metrics *Metrics
	mux     *http.ServeMux

	timeout      time.Duration // per-request deadline
	maxInFlight  int64         // load-shedding bound
	batchWorkers int           // /batch kernel fan-out; <= 0 means GOMAXPROCS

	// scratch pools the BFS kernel state used by verify=1 requests, so
	// verification costs one traversal and zero steady-state
	// allocations per request.
	scratch sync.Pool

	// routers holds one incremental fault router per resident dims, so
	// consecutive /faultroute requests pay a fault-set diff instead of a
	// per-request router rebuild.
	routersMu sync.Mutex
	routers   map[Dims]*instanceRouter

	// testHook, when set, runs inside every instrumented request after
	// the in-flight gauge is raised; tests use it to hold requests open
	// across a drain.
	testHook func(endpoint string)
}

// instanceRouter serialises access to one instance's fault router: the
// SetFaults/Route/stats sequence must be atomic per request even though
// the router itself is also internally synchronised.
type instanceRouter struct {
	mu sync.Mutex
	r  *faultroute.Router

	// last is the fault list of the most recent successful SetFaults,
	// valid while known is set; a request repeating it skips the diff.
	last  []int
	known bool
}

// setFaults moves the router to faults, skipping the diff when the list
// repeats the previous call's (SetFaults is then a no-op that still
// allocates its working set). Callers hold ir.mu.
func (ir *instanceRouter) setFaults(faults []int) error {
	if ir.known && slices.Equal(ir.last, faults) {
		return nil
	}
	ir.known = false
	if err := ir.r.SetFaults(faults); err != nil {
		return err
	}
	ir.last = append(ir.last[:0], faults...)
	ir.known = true
	return nil
}

// Config sizes a Server. Zero values select the defaults.
type Config struct {
	PoolMax   int // max resident HB instances (DefaultPoolMax)
	MaxOrder  int // max nodes of a served instance (DefaultMaxOrder)
	CacheSize int // /paths cache capacity in entries; < 0 disables
	// RequestTimeout bounds each instrumented request: the heavy
	// handlers answer 503 once it has passed since the request started;
	// 0 means DefaultRequestTimeout, < 0 disables the deadline.
	RequestTimeout time.Duration
	// MaxInFlight sheds load with a 503 + Retry-After once this many
	// instrumented requests are already in flight; 0 means
	// DefaultMaxInFlight, < 0 disables shedding.
	MaxInFlight int
	// BatchWorkers bounds the per-request fan-out of the /batch routing
	// kernel; 0 means GOMAXPROCS.
	BatchWorkers int
}

// DefaultCacheSize holds rendered /paths bodies; entries are small (m+4 paths of tens of ints) so this is a few MB at
// worst.
const DefaultCacheSize = 4096

// DefaultRequestTimeout bounds a single request; generous enough for a
// cold conformance run on the largest on-demand instance.
const DefaultRequestTimeout = 10 * time.Second

// DefaultMaxInFlight is the load-shedding bound: far above any healthy
// concurrency for these µs-to-ms handlers, so it only trips when the
// service is already drowning.
const DefaultMaxInFlight = 512

// maxFaultRouters bounds the per-dims router cache; beyond it the map
// is reset (routers rebuild in microseconds, the bound only stops
// growth under adversarial dims sweeps).
const maxFaultRouters = 16

// NewServer returns a ready-to-serve Server.
func NewServer(cfg Config) *Server {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	maxInFlight := int64(cfg.MaxInFlight)
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	s := &Server{
		pool:         &Pool{Max: cfg.PoolMax, MaxOrder: cfg.MaxOrder},
		cache:        NewRouteCache(size, DefaultCacheShards),
		metrics:      NewMetrics(),
		mux:          http.NewServeMux(),
		timeout:      timeout,
		maxInFlight:  maxInFlight,
		batchWorkers: cfg.BatchWorkers,
		routers:      make(map[Dims]*instanceRouter),
	}
	s.scratch.New = func() any { return graph.NewScratch(0) }
	s.mux.HandleFunc("/route", s.instrument("route", s.handleRoute))
	s.mux.HandleFunc("/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("/paths", s.instrument("paths", s.handlePaths))
	s.mux.HandleFunc("/faultroute", s.instrument("faultroute", s.handleFaultRoute))
	s.mux.HandleFunc("/info", s.instrument("info", s.handleInfo))
	s.mux.HandleFunc("/conformance", s.instrument("conformance", s.handleConformance))
	s.mux.HandleFunc("/estimate", s.instrument("estimate", s.handleEstimate))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.WriteTo(w, s.cache, s.pool)
	})
	return s
}

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the live registry (the load generator reads it when
// it runs in-process during tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the /paths response cache for stats
// inspection.
func (s *Server) Cache() *RouteCache { return s.cache }

// ListenAndServe serves on addr until ctx is cancelled, then drains
// in-flight requests for up to grace before forcing connections shut.
// It returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, grace)
}

// Serve is ListenAndServe over an existing listener (tests bind port 0
// and read the real address back).
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("hbserve: drain incomplete after %v: %w", grace, err)
	}
	<-errc // always http.ErrServerClosed after a Shutdown
	return nil
}

// statusWriter captures the response code for metrics and whether a
// header has gone out (after that, a panic recovery can only abort, not
// rewrite the response). It also carries the request's start time and
// deadline, so the middleware needs no per-request context. Writers are
// pooled: instrument owns one for exactly the span of a request.
type statusWriter struct {
	http.ResponseWriter
	code     int
	wrote    bool
	start    time.Time
	deadline time.Time // zero when RequestTimeout is disabled
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the serving-resilience middleware:
// the in-flight gauge, per-endpoint counter and latency histogram;
// load shedding (503 + Retry-After beyond maxInFlight, so an
// overloaded daemon degrades crisply instead of queueing without
// bound); a per-request deadline that checkDeadline enforces; and
// panic recovery that answers 500 and increments a metric instead of
// killing the daemon. The endpoint's metrics are resolved here, once,
// so a request allocates nothing in the middleware.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	stats := s.metrics.endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.RequestStart()
		sw := statusWriterPool.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w, code: http.StatusOK, start: time.Now()}
		if s.timeout > 0 {
			sw.deadline = sw.start.Add(s.timeout)
		}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.PanicRecovered()
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					writeErr(sw, &httpError{
						code: http.StatusInternalServerError,
						msg:  fmt.Sprintf("internal error: %v", p),
					})
				}
			}
			stats.end(sw.code, time.Since(sw.start))
			*sw = statusWriter{}
			statusWriterPool.Put(sw)
		}()
		if s.maxInFlight > 0 && s.metrics.InFlight() > s.maxInFlight {
			s.metrics.LoadShed()
			sw.Header()["Retry-After"] = hdrRetryAfter
			writeErr(sw, &httpError{
				code: http.StatusServiceUnavailable,
				msg:  fmt.Sprintf("over capacity: %d requests in flight", s.metrics.InFlight()),
			})
			return
		}
		if s.testHook != nil {
			s.testHook(endpoint)
		}
		h(sw, r)
	}
}

// checkDeadline maps a cancelled request context, or a RequestTimeout
// already spent since instrument started the request, to the 503 the
// heavy handlers (/conformance, /faultroute, /estimate, /batch) consult
// before starting expensive work. w is the writer instrument passed in;
// outside instrument only the context is consulted.
func checkDeadline(w http.ResponseWriter, r *http.Request) error {
	sw, _ := w.(*statusWriter)
	if r.Context().Err() != nil || sw != nil && !sw.deadline.IsZero() && !time.Now().Before(sw.deadline) {
		return &httpError{code: http.StatusServiceUnavailable, msg: "request deadline exceeded before work started"}
	}
	return nil
}

// httpError is an error carrying a status code.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// Shared header values: assigning one of these to a header key costs
// no allocation, where Header.Set builds a fresh []string per call.
// Header.Add on such a key appends past the length-1 capacity, so it
// copies instead of writing into the shared slice.
var (
	hdrJSON       = []string{ctJSON}
	hdrBatchBin   = []string{ctBatchBin}
	hdrHit        = []string{"hit"}
	hdrMiss       = []string{"miss"}
	hdrRetryAfter = []string{"1"}
)

// headerValue returns the shared slice for v, or a fresh one.
func headerValue(v string) []string {
	switch v {
	case ctJSON:
		return hdrJSON
	case ctBatchBin:
		return hdrBatchBin
	case "hit":
		return hdrHit
	case "miss":
		return hdrMiss
	}
	return []string{v}
}

// setResponseHeaders is the single place response headers are
// assembled: every handler path goes through it, so Content-Type and
// X-Cache can never drift between the cache-hit and cache-miss paths.
// cache is "" for uncached responses (no X-Cache header).
func setResponseHeaders(w http.ResponseWriter, contentType, cache string) {
	h := w.Header()
	h["Content-Type"] = headerValue(contentType)
	if cache != "" {
		h["X-Cache"] = headerValue(cache)
	}
}

// writeBody writes pre-rendered bytes under the shared header helper.
func writeBody(w http.ResponseWriter, contentType, cache string, body []byte) {
	setResponseHeaders(w, contentType, cache)
	w.Write(body)
}

// writeJSON writes v as JSON; writeErr maps errors to {"error": ...}.
func writeJSON(w http.ResponseWriter, v any) {
	setResponseHeaders(w, ctJSON, "")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	} else if strings.Contains(err.Error(), "hbserve:") {
		code = http.StatusBadRequest
	}
	setResponseHeaders(w, ctJSON, "")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// query parsing ------------------------------------------------------

func (s *Server) instance(q query) (core.Topology, Dims, error) {
	m, err := intParam(q, "m", 2)
	if err != nil {
		return nil, Dims{}, err
	}
	n, err := intParam(q, "n", 3)
	if err != nil {
		return nil, Dims{}, err
	}
	d := Dims{M: m, N: n}
	top, err := s.pool.Get(d)
	if err != nil {
		return nil, d, badRequest("%v", err)
	}
	return top, d, nil
}

// pair resolves the instance and the u, v endpoints every pair query
// names, reporting the first bad parameter in m, n, u, v order.
func (s *Server) pair(q query) (top core.Topology, d Dims, u, v int, err error) {
	if top, d, err = s.instance(q); err != nil {
		return
	}
	if u, err = nodeParam(q, top, "u"); err != nil {
		return
	}
	v, err = nodeParam(q, top, "v")
	return
}

// denseBackend unwraps a Topology to its dense-capable instance, or nil
// when none exists. An Implicit shares the underlying instance, so
// unwrapping it is safe wherever an order cap already bounds the dense
// work (/conformance, and verify=1 up to denseVerifyMaxOrder).
func denseBackend(top core.Topology) *core.HyperButterfly {
	switch t := top.(type) {
	case *core.HyperButterfly:
		return t
	case *core.Implicit:
		return t.HyperButterfly
	}
	return nil
}

// handlers -----------------------------------------------------------

// handleRoute answers /route uncached: AppendRoute fills a pooled
// buffer and the body is appended next to it, so a request allocates
// nothing on its own.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	top, d, u, v, err := s.pair(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	sc := getSingleScratch()
	defer putSingleScratch(sc)
	sc.nodes = top.AppendRoute(u, v, sc.nodes[:0])
	verify := boolParam(q, "verify")
	if verify {
		if err := s.verifyRoute(top, u, v, sc.nodes); err != nil {
			writeErr(w, err)
			return
		}
	}
	sc.body = appendRouteBody(sc.body[:0], top, d, sc.nodes, verify)
	writeBody(w, ctJSON, "", sc.body)
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	top, d, u, v, err := s.pair(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	if u == v {
		writeErr(w, badRequest("disjoint paths need distinct endpoints (u=v=%d)", u))
		return
	}
	verify := boolParam(q, "verify")
	key := cacheKey("paths", d, u, v, verify)
	body, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
		paths, err := top.DisjointPaths(u, v)
		if err != nil {
			return nil, err
		}
		if verify {
			if err := s.verifyPaths(top, u, v, paths); err != nil {
				return nil, err
			}
		}
		return appendPathsBody(nil, d, u, v, paths, verify), nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeBody(w, ctJSON, cacheState(hit), body)
}

func (s *Server) handleFaultRoute(w http.ResponseWriter, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	top, d, u, v, err := s.pair(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	sc := getSingleScratch()
	defer putSingleScratch(sc)
	faults, err := appendFaultsParam(q, top, sc.faults)
	if err != nil {
		writeErr(w, err)
		return
	}
	sc.faults = faults
	if err := checkDeadline(w, r); err != nil {
		writeErr(w, err)
		return
	}
	ir, err := s.routerFor(d, top)
	if err != nil {
		writeErr(w, badRequest("%v", err))
		return
	}
	// The SetFaults/Route/stats sequence must see one consistent fault
	// set, so it holds the instance lock; the incremental router keeps
	// every cached path that survives the diff.
	ir.mu.Lock()
	if err := ir.setFaults(faults); err != nil {
		ir.mu.Unlock()
		writeErr(w, badRequest("%v", err))
		return
	}
	path, err := ir.r.Route(u, v)
	if err != nil {
		ir.mu.Unlock()
		// A routing failure is a valid answer about the query, not a
		// server fault: faulty endpoints or a disconnecting fault set.
		writeErr(w, &httpError{code: http.StatusUnprocessableEntity, msg: err.Error()})
		return
	}
	within, strategy := ir.r.WithinGuarantee(), ir.r.LastStrategy()
	ir.mu.Unlock()
	sc.body = appendFaultRouteBody(sc.body[:0], d, u, v, faults, within, strategy, path)
	writeBody(w, ctJSON, "", sc.body)
}

// routerFor returns the resident incremental router for d, building it
// on first use. The map is bounded by maxFaultRouters and simply reset
// when full — routers rebuild in microseconds.
func (s *Server) routerFor(d Dims, top core.Topology) (*instanceRouter, error) {
	s.routersMu.Lock()
	defer s.routersMu.Unlock()
	if ir, ok := s.routers[d]; ok {
		return ir, nil
	}
	if len(s.routers) >= maxFaultRouters {
		s.routers = make(map[Dims]*instanceRouter)
	}
	r, err := faultroute.New(top, nil)
	if err != nil {
		return nil, err
	}
	ir := &instanceRouter{r: r}
	s.routers[d] = ir
	return ir, nil
}

type infoResponse struct {
	M            int `json:"m"`
	N            int `json:"n"`
	Order        int `json:"order"`
	Edges        int `json:"edges"`
	Degree       int `json:"degree"`
	Diameter     int `json:"diameter"`
	Connectivity int `json:"connectivity"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	hb, d, err := s.instance(parseQuery(r.URL.RawQuery))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, infoResponse{
		M: d.M, N: d.N,
		Order:        hb.Order(),
		Edges:        hb.EdgeCountFormula(),
		Degree:       hb.Degree(),
		Diameter:     hb.DiameterFormula(),
		Connectivity: hb.ConnectivityFormula(),
	})
}

// maxConformanceOrder bounds on-demand conformance runs: the invariant
// registry does BFS sweeps and max-flow probes, so a request against a
// big instance could occupy a worker for seconds.
const maxConformanceOrder = 1 << 12

func (s *Server) handleConformance(w http.ResponseWriter, r *http.Request) {
	top, d, err := s.instance(parseQuery(r.URL.RawQuery))
	if err != nil {
		writeErr(w, err)
		return
	}
	if top.Order() > maxConformanceOrder {
		writeErr(w, badRequest("conformance on %v (%d nodes) exceeds the on-demand cap %d",
			d, top.Order(), maxConformanceOrder))
		return
	}
	// The registry needs the dense-capable instance; the order cap above
	// keeps its materialisation trivial.
	hb := denseBackend(top)
	if hb == nil {
		writeErr(w, badRequest("conformance unsupported on backend %T", top))
		return
	}
	if err := checkDeadline(w, r); err != nil {
		writeErr(w, err)
		return
	}
	rep := conformance.Run(
		[]conformance.Target{conformance.HyperButterflyInstance(hb)},
		conformance.DefaultInvariants(),
		conformance.Options{},
	)
	writeJSON(w, rep)
}

// estimateResponse is the /estimate body: the exact ordered-pair
// distance histogram, self pairs included, and what follows from it.
// Every eccentricity equals the diameter, so ecc_min and ecc_max are
// both len(hist)-1; exact is always true.
type estimateResponse struct {
	M     int  `json:"m"`
	N     int  `json:"n"`
	Order int  `json:"order"`
	Exact bool `json:"exact"`

	Diameter        int `json:"diameter"`
	DiameterFormula int `json:"diameter_formula"`
	EccMin          int `json:"ecc_min"`
	EccMax          int `json:"ecc_max"`

	MeanDistance float64   `json:"mean_distance"`
	Hist         []int64   `json:"hist"`
	Fractions    []float64 `json:"fractions"`
}

// handleEstimate answers the exact distance distribution of any served
// dims from the product structure (core.Topology.DistanceHistogram).
// The first request for a given n searches B_n once; every later one,
// for any m, convolves the cached factor histogram, so it is uncached
// itself. mean_distance and fractions are over ordered pairs of
// distinct nodes.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	top, d, err := s.instance(parseQuery(r.URL.RawQuery))
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := checkDeadline(w, r); err != nil {
		writeErr(w, err)
		return
	}
	hist := top.DistanceHistogram()
	order := int64(top.Order())
	pairs := order*order - order
	var sum int64
	fractions := make([]float64, len(hist))
	for dist := 1; dist < len(hist); dist++ {
		sum += int64(dist) * hist[dist]
		fractions[dist] = float64(hist[dist]) / float64(pairs)
	}
	diameter := len(hist) - 1
	writeJSON(w, estimateResponse{
		M: d.M, N: d.N, Order: top.Order(),
		Exact:           true,
		Diameter:        diameter,
		DiameterFormula: top.DiameterFormula(),
		EccMin:          diameter,
		EccMax:          diameter,
		MeanDistance:    float64(sum) / float64(pairs),
		Hist:            hist,
		Fractions:       fractions,
	})
}

// cacheKey builds the full query identity for the response cache. The
// verify flag is part of the identity: verified and unverified bodies
// differ.
func cacheKey(kind string, d Dims, u, v int, verify bool) string {
	key := kind + "|" + strconv.Itoa(d.M) + "|" + strconv.Itoa(d.N) + "|" +
		strconv.Itoa(u) + "|" + strconv.Itoa(v)
	if verify {
		key += "|verified"
	}
	return key
}

// verification -------------------------------------------------------

// bfsDist runs one pooled-scratch kernel BFS from u and passes the
// distances to read (the slice aliases the scratch, so it must not
// escape read).
func (s *Server) bfsDist(hb *core.HyperButterfly, u int, read func(dist []int32) error) error {
	sc := s.scratch.Get().(*graph.Scratch)
	defer s.scratch.Put(sc)
	return read(hb.Dense().BFSScratch(u, nil, sc))
}

// denseVerifyMaxOrder is the largest order whose verify=1 requests
// replay the BFS oracle over the dense adjacency (built lazily, once
// per instance, on the first such request). Above it the adjacency is
// the very thing the implicit backend avoids, so verification is
// label-arithmetic instead.
const denseVerifyMaxOrder = 1 << 17

// verifyOracle returns the dense instance whose BFS oracle verifies
// answers on top, or nil when verification is label-arithmetic.
func verifyOracle(top core.Topology) *core.HyperButterfly {
	if top.Order() > denseVerifyMaxOrder {
		return nil
	}
	return denseBackend(top)
}

// verifyRoute independently checks a /route answer: the path must run
// u -> v over real edges and its length must equal the shortest-path
// distance (Theorem 3 routes are optimal). Up to denseVerifyMaxOrder
// the oracle is a pooled-scratch BFS over the materialised adjacency;
// above it every hop is checked against the label-computed
// neighborhood of its predecessor and the length against the analytic
// distance, which the implicit differential gate holds to BFS equality
// on every conformance instance.
func (s *Server) verifyRoute(top core.Topology, u, v int, path []int) error {
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return fmt.Errorf("route verification failed: path endpoints %v, want %d -> %d", path, u, v)
	}
	hb := verifyOracle(top)
	if hb == nil {
		var buf []int
		for i := 1; i < len(path); i++ {
			var ok bool
			if buf, ok = implicitHasEdge(top, path[i-1], path[i], buf); !ok {
				return fmt.Errorf("route verification failed: %d-%d is not an edge", path[i-1], path[i])
			}
		}
		if want := top.Distance(u, v); len(path)-1 != want {
			return fmt.Errorf("route verification failed: length %d, distance %d", len(path)-1, want)
		}
		return nil
	}
	dense := hb.Dense()
	for i := 1; i < len(path); i++ {
		if !dense.HasEdge(path[i-1], path[i]) {
			return fmt.Errorf("route verification failed: %d-%d is not an edge", path[i-1], path[i])
		}
	}
	return s.bfsDist(hb, u, func(dist []int32) error {
		if int(dist[v]) != len(path)-1 {
			return fmt.Errorf("route verification failed: length %d, BFS distance %d", len(path)-1, dist[v])
		}
		return nil
	})
}

// implicitHasEdge reports whether u-w is an edge using only the label
// neighborhood of u; it returns the (possibly grown) scratch buffer so
// a verification loop reuses one allocation.
func implicitHasEdge(top core.Topology, u, w int, buf []int) ([]int, bool) {
	buf = top.AppendNeighbors(u, buf[:0])
	for _, x := range buf {
		if x == w {
			return buf, true
		}
	}
	return buf, false
}

// verifyPaths independently checks a /paths answer: every path must run
// u -> v over real edges, the set must be internally vertex-disjoint
// (graph.VerifyDisjointPaths), and no path may be shorter than the
// shortest-path distance. Up to denseVerifyMaxOrder the edges come from
// the dense adjacency and the distance from the BFS oracle; above it
// both come from label arithmetic (every Topology is a graph.Graph).
func (s *Server) verifyPaths(top core.Topology, u, v int, paths [][]int) error {
	hb := verifyOracle(top)
	var g graph.Graph = top
	if hb != nil {
		g = hb.Dense()
	}
	if err := graph.VerifyDisjointPaths(g, u, v, paths); err != nil {
		return fmt.Errorf("paths verification failed: %v", err)
	}
	checkLen := func(dist int, oracle string) error {
		for pi, p := range paths {
			if len(p)-1 < dist {
				return fmt.Errorf("paths verification failed: path %d length %d below %s %d", pi, len(p)-1, oracle, dist)
			}
		}
		return nil
	}
	if hb == nil {
		return checkLen(top.Distance(u, v), "distance")
	}
	return s.bfsDist(hb, u, func(dist []int32) error { return checkLen(int(dist[v]), "BFS distance") })
}

// marshalBody renders a response exactly as json.Encoder does (trailing
// newline included) so cached and uncached bodies are byte-identical.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
