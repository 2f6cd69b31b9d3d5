package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The system under test runs in this process: every daemon and the
// router serve their public Handler() on a loopback listener, and the
// load generator reaches them over real TCP connections, at most one
// per worker.

// traceOrigin anchors every timestamp the benchmark records.
var traceOrigin = time.Now()

func now() int64 { return int64(time.Since(traceOrigin)) }

// node is one in-process HTTP server on a loopback listener.
type node struct {
	url  string
	srv  *http.Server
	done chan struct{}

	open, peak atomic.Int64 // client connections: live and most at once
}

func startNode(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.srv = &http.Server{Handler: h, ConnState: n.connState}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return n, nil
}

func (n *node) connState(_ net.Conn, st http.ConnState) {
	switch st {
	case http.StateNew:
		v := n.open.Add(1)
		for p := n.peak.Load(); v > p && !n.peak.CompareAndSwap(p, v); p = n.peak.Load() {
		}
	case http.StateClosed, http.StateHijacked:
		n.open.Add(-1)
	}
}

// close stops the server, drops its connections and waits for Serve to
// return.
func (n *node) close() {
	_ = n.srv.Close() // closing listeners and connections; errors are moot at teardown
	<-n.done
}

// spanLog records handler spans while tracing is on. Wrapping costs one
// atomic load per request while it is off.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) wrap(h http.Handler, label func(*http.Request) uint8) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := now()
		h.ServeHTTP(w, r)
		end := now()
		l.mu.Lock()
		l.spans = append(l.spans, span{start: start, end: end, label: label(r)})
		l.mu.Unlock()
	})
}

// take returns the recorded spans and clears the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// opLabel labels a daemon span by its endpoint.
func opLabel(r *http.Request) uint8 {
	for o, name := range opNames {
		if r.URL.Path == "/"+name {
			return uint8(o)
		}
	}
	return noLabel
}

// newClient returns an HTTP client that holds at most conns
// connections to any one server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
		},
	}
}

// sample is one request as the generator saw it.
type sample struct {
	k               int32 // stream index; -(i+1) for the stream's i-th first-use request
	ok              bool  // 2xx answer, read in full
	checked         bool  // already validated inside the phase
	due, start, end int64
	lat             int64 // latency in ns (see gen.run)
	off, n          int32 // answer bytes in the worker's arena
}

// workerLog is one generator worker's record of a phase. Answers are
// kept in arena and validated after the phase, so validation costs no
// time or allocations inside a measured window; with an inline checker
// they are validated on arrival and dropped instead.
type workerLog struct {
	samples []sample
	arena   []byte
	errs    []error // transport failures, non-2xx and rejected answers
	inline  *checker
}

// gen drives one stream against one server.
type gen struct {
	client *http.Client
	base   string
	s      *stream
	pos    atomic.Int64 // next stream position; phases continue the replay

	// inline, when set, makes a checker per worker that validates each
	// answer as it arrives. Batch answers are too large to keep for a
	// whole phase; checking one reads its frames in place and costs a
	// fraction of a percent of the batch it checks.
	inline func() *checker
}

// send issues r and appends the answer to w, with the send-to-answer
// time as its latency.
func (g *gen) send(w *workerLog, k int, r *request, due int64) {
	smp := sample{k: int32(k), due: due, start: now()}
	var req *http.Request
	var err error
	if r.body != nil {
		req, err = http.NewRequest(http.MethodPost, g.base+r.target, bytes.NewReader(r.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-hbbatch")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, g.base+r.target, nil)
	}
	if err == nil {
		var resp *http.Response
		if resp, err = g.client.Do(req); err == nil {
			off := len(w.arena)
			w.arena, err = readAll(w.arena, resp.Body)
			resp.Body.Close()
			smp.off, smp.n = int32(off), int32(len(w.arena)-off)
			if err == nil && resp.StatusCode/100 != 2 {
				err = fmt.Errorf("%s: HTTP %d: %s", r.target, resp.StatusCode, bytes.TrimSpace(w.arena[off:]))
			}
			if err == nil && w.inline != nil {
				err = w.inline.check(r, g.s.faultsOf(r), w.arena[off:])
				smp.checked = true
			}
			if w.inline != nil {
				w.arena = w.arena[:off]
			}
		}
	}
	smp.end = now()
	smp.lat = smp.end - smp.start
	smp.ok = err == nil
	if err != nil {
		w.errs = append(w.errs, err)
	}
	w.samples = append(w.samples, smp)
}

// readAll appends everything r yields to dst.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// phaseSpec describes one generator phase.
type phaseSpec struct {
	workers int
	dur     time.Duration // run this long (0: until limit)
	limit   int64         // stop before this stream position (0: none)
	rate    float64       // offered requests per second; 0 means closed loop
}

// phase is the raw outcome of one phase.
type phase struct {
	cost  delta
	logs  []*workerLog
	start int64
}

// run executes one phase. In a closed loop each worker sends its next
// request as soon as the previous answer is read. In an open loop
// request i is due at start + i/rate whatever happened before, and a
// free worker takes the next due request. Its latency is counted from
// its due time on a punctual schedule: its own measured send-to-answer
// time plus the wait behind its worker's previous request, as of that
// request's punctual completion. A stall therefore delays every request
// queued behind it, while the generator's own late timer wake-ups
// (about half a millisecond on the reference box; gen.lag_p99_ms) are
// not charged to the server.
func (g *gen) run(spec phaseSpec) *phase {
	ph := &phase{logs: make([]*workerLog, spec.workers)}
	var issued atomic.Int64
	period := 0.0
	if spec.rate > 0 {
		period = 1e9 / spec.rate
	}
	before := readUsageWithPauses()
	ph.start = now()
	stop := ph.start + int64(spec.dur)
	var wg sync.WaitGroup
	for i := range ph.logs {
		w := &workerLog{}
		if g.inline != nil {
			w.inline = g.inline()
		}
		ph.logs[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := int64(0) // punctual completion of this worker's last request
			for {
				due := now()
				if spec.rate > 0 {
					due = ph.start + int64(float64(issued.Add(1)-1)*period)
					if due >= stop {
						return
					}
					if d := due - now(); d > 0 {
						time.Sleep(time.Duration(d))
					}
				} else if spec.dur > 0 && due >= stop {
					return
				}
				pos := g.pos.Add(1) - 1
				if spec.limit > 0 && pos >= spec.limit {
					return
				}
				k, r := g.s.at(pos)
				g.send(w, k, r, due)
				if spec.rate > 0 {
					s := &w.samples[len(w.samples)-1]
					s.lat += max(free-due, 0)
					free = due + s.lat
				}
			}
		}()
	}
	wg.Wait()
	ph.cost = readUsageWithPauses().since(before)
	return ph
}

// tally is a validated phase.
type tally struct {
	attempted, failed int
	okPairs           int
	latencyMs         []float64 // per request (sample.lat); failures are +Inf
	errs              []error
}

// add counts o's operations and failures into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// validator checks a phase's answers after the phase. Answers to the
// same cacheable query must be byte-identical, so a repeat of an answer
// already validated is checked by comparing its 64-bit FNV-1a hash.
type validator struct {
	s    *stream
	c    *checker
	seen map[int32]uint64
}

func newValidator(s *stream, c *checker) *validator {
	return &validator{s: s, c: c, seen: map[int32]uint64{}}
}

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (v *validator) tally(ph *phase) tally {
	var t tally
	for _, w := range ph.logs {
		t.errs = append(t.errs, w.errs...)
		for _, smp := range w.samples {
			t.attempted++
			r := v.s.request(smp.k)
			lat := math.Inf(1)
			ok := smp.ok
			if ok && !smp.checked {
				body := w.arena[smp.off : smp.off+smp.n]
				if err := v.check(smp.k, r, body); err != nil {
					ok = false
					t.errs = append(t.errs, err)
				}
			}
			if ok {
				t.okPairs += r.pairs()
				lat = float64(smp.lat) / 1e6
			} else {
				t.failed++
			}
			t.latencyMs = append(t.latencyMs, lat)
		}
	}
	return t
}

func (v *validator) check(k int32, r *request, body []byte) error {
	cacheable := k >= 0 && (r.op == opRoute || r.op == opPaths)
	var h uint64
	if cacheable {
		h = fnv1a(body)
		if prev, ok := v.seen[k]; ok && prev == h {
			return nil
		}
	}
	if err := v.c.check(r, v.s.faultsOf(r), body); err != nil {
		return err
	}
	if cacheable {
		v.seen[k] = h
	}
	return nil
}

// drop releases a validated phase's answer arenas.
func (ph *phase) drop() {
	for _, w := range ph.logs {
		w.arena = nil
	}
}
