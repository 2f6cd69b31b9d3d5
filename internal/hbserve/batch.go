package hbserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// The /batch endpoint answers thousands of (src, dst) pairs per POST,
// amortising the per-request overhead (HTTP parsing, dispatch, encode)
// that dwarfs the label-arithmetic kernel on single-pair GETs. Requests
// and responses are columnar in two codecs selected by Content-Type:
//
//   - application/json — columns as JSON arrays
//     ({"m":2,"n":3,"op":"route","src":[...],"dst":[...]});
//   - application/x-hbbatch — length-prefixed little-endian binary
//     frames, encoded and decoded for every hop in wire.go.
//
// Four ops share the request shape: dist and route run on the
// zero-alloc core.RouteBatch kernel, paths bundles Theorem 5 disjoint
// paths per pair, and faultroute applies one shared fault set to the
// whole request through the resident incremental router. Responses are
// columnar too: a per-pair status column plus offset columns into one
// flat node arena, which is exactly the kernel's in-memory layout — the
// encoders serialise it without reshaping.

const (
	// maxBatchPairs bounds one request; beyond it the client should
	// split the batch (the response would exceed sane body sizes).
	maxBatchPairs = 1 << 16
	// maxBatchBody bounds the request body read.
	maxBatchBody = 16 << 20

	ctJSON     = "application/json"
	ctBatchBin = "application/x-hbbatch"
)

// batchRequest is one decoded /batch request, codec-independent.
type batchRequest struct {
	codec  string // "json" or "bin"
	op     uint8
	m, n   int
	faults []int
	src    []int
	dst    []int
}

// batchScratch is the pooled per-request working set: the kernel's
// column scratch plus the extra columns the composed ops (paths,
// faultroute) fill.
type batchScratch struct {
	bs    core.BatchScratch
	off   []int32 // faultroute: node offsets; paths: pair -> path offsets
	poff  []int32 // paths: path -> node offsets
	nodes []int
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// handleBatch is the /batch endpoint.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, &httpError{code: http.StatusMethodNotAllowed, msg: "/batch takes POST"})
		return
	}
	req, err := parseBatchRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	d := Dims{M: req.m, N: req.n}
	top, err := s.pool.Get(d)
	if err != nil {
		writeErr(w, badRequest("%v", err))
		return
	}
	if len(req.faults) > 0 && req.op != batchOpFaultRoute {
		writeErr(w, badRequest("faults only apply to op=faultroute"))
		return
	}
	for _, f := range req.faults {
		if !top.ValidNode(f) {
			writeErr(w, badRequest("fault %d out of range [0,%d)", f, top.Order()))
			return
		}
	}
	if err := checkDeadline(w, r); err != nil {
		writeErr(w, err)
		return
	}

	start := time.Now()
	body, err := s.computeBatch(top, d, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.metrics.BatchObserve(req.codec, batchOpNames[req.op], len(req.src), time.Since(start))
	writeBody(w, req.contentType(), "", body)
}

func (r *batchRequest) contentType() string {
	if r.codec == "bin" {
		return ctBatchBin
	}
	return ctJSON
}

// appendBatchJSONHead opens a JSON /batch body: {"m":..,"n":..,"op":"..".
func appendBatchJSONHead(out []byte, m, n int, op string) []byte {
	out = append(out, `{"m":`...)
	out = strconv.AppendInt(out, int64(m), 10)
	out = append(out, `,"n":`...)
	out = strconv.AppendInt(out, int64(n), 10)
	out = append(out, `,"op":"`...)
	out = append(out, op...)
	return append(out, '"')
}

// EncodeBatchJSONRequest renders a /batch request body in the JSON
// codec (the load generator prebuilds its bodies with it).
func EncodeBatchJSONRequest(op string, m, n int, src, dst []int) []byte {
	out := appendBatchJSONHead(make([]byte, 0, 48+12*(len(src)+len(dst))), m, n, op)
	out = appendJSONInts(out, "src", src)
	out = appendJSONInts(out, "dst", dst)
	return append(out, '}')
}

// request decoding ---------------------------------------------------

func parseBatchRequest(r *http.Request) (*batchRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBatchBody))
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	return parseBatchBody(r.Header.Get("Content-Type"), body)
}

// parseBatchBody decodes an already-buffered /batch body in whichever
// codec the Content-Type selects; the replica handler and the router's
// scatter path share it, so a body is valid (or rejected) identically
// on both tiers.
func parseBatchBody(ct string, body []byte) (*batchRequest, error) {
	var req *batchRequest
	var err error
	switch {
	case ct == ctBatchBin:
		req, err = parseBatchBin(body)
	case ct == "" || ct == ctJSON || len(ct) > len(ctJSON) && ct[:len(ctJSON)] == ctJSON:
		req, err = parseBatchJSON(body)
	default:
		return nil, &httpError{code: http.StatusUnsupportedMediaType,
			msg: fmt.Sprintf("unsupported Content-Type %q (want %s or %s)", ct, ctJSON, ctBatchBin)}
	}
	if err != nil {
		return nil, err
	}
	if len(req.src) != len(req.dst) {
		return nil, badRequest("src has %d entries, dst has %d", len(req.src), len(req.dst))
	}
	if len(req.src) > maxBatchPairs {
		return nil, badRequest("%d pairs over the per-request cap %d", len(req.src), maxBatchPairs)
	}
	return req, nil
}

func parseBatchJSON(body []byte) (*batchRequest, error) {
	var jr struct {
		M      *int   `json:"m"`
		N      *int   `json:"n"`
		Op     string `json:"op"`
		Faults []int  `json:"faults"`
		Src    []int  `json:"src"`
		Dst    []int  `json:"dst"`
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		return nil, badRequest("bad JSON body: %v", err)
	}
	req := &batchRequest{codec: "json", m: 2, n: 3, faults: jr.Faults, src: jr.Src, dst: jr.Dst}
	if jr.M != nil {
		req.m = *jr.M
	}
	if jr.N != nil {
		req.n = *jr.N
	}
	opName := jr.Op
	if opName == "" {
		opName = "route"
	}
	op, ok := batchOpCodes[opName]
	if !ok {
		return nil, badRequest("unknown op %q (want dist, route, paths or faultroute)", opName)
	}
	req.op = op
	return req, nil
}

// computation --------------------------------------------------------

// batchColumns is the codec-independent answer of one batch: a status
// column plus op-dependent columns over one flat node arena.
type batchColumns struct {
	op     uint8
	m, n   int
	faults []int   // echoed for faultroute
	status []uint8 // per pair
	dist   []int32 // dist, route
	off    []int32 // route/faultroute: pair -> node offsets; paths: pair -> path offsets
	poff   []int32 // paths: path -> node offsets
	nodes  []int
}

func (s *Server) computeBatch(top core.Topology, d Dims, req *batchRequest) ([]byte, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	cols := batchColumns{op: req.op, m: req.m, n: req.n, faults: req.faults}

	switch req.op {
	case batchOpDist, batchOpRoute:
		kop := core.BatchDist
		if req.op == batchOpRoute {
			kop = core.BatchRoute
		}
		if err := core.RouteBatch(top, kop, req.src, req.dst, s.batchWorkers, &sc.bs); err != nil {
			return nil, badRequest("%v", err)
		}
		cols.status, cols.dist, cols.off, cols.nodes = sc.bs.Status, sc.bs.Dist, sc.bs.Off, sc.bs.Nodes

	case batchOpFaultRoute:
		if err := s.faultRouteBatch(top, d, req, sc); err != nil {
			return nil, err
		}
		cols.status, cols.off, cols.nodes = sc.bs.Status, sc.off, sc.nodes

	case batchOpPaths:
		pathsBatch(top, req, sc)
		cols.status, cols.off, cols.poff, cols.nodes = sc.bs.Status, sc.off, sc.poff, sc.nodes
	}

	if req.codec == "bin" {
		return encodeBatchBin(&cols), nil
	}
	return encodeBatchJSON(&cols), nil
}

// faultRouteBatch routes every pair around one shared fault set through
// the resident incremental router; the SetFaults/Route sequence holds
// the instance lock so the whole batch sees one consistent fault set.
func (s *Server) faultRouteBatch(top core.Topology, d Dims, req *batchRequest, sc *batchScratch) error {
	ir, err := s.routerFor(d, top)
	if err != nil {
		return badRequest("%v", err)
	}
	pairs := len(req.src)
	sc.bs.Status = sc.bs.Status[:0]
	sc.off = append(sc.off[:0], 0)
	sc.nodes = sc.nodes[:0]
	ir.mu.Lock()
	defer ir.mu.Unlock()
	if err := ir.setFaults(req.faults); err != nil {
		return badRequest("%v", err)
	}
	for i := 0; i < pairs; i++ {
		u, v := req.src[i], req.dst[i]
		status := core.BatchOK
		switch {
		case !top.ValidNode(u) || !top.ValidNode(v):
			status = core.BatchBadNode
		default:
			path, err := ir.r.Route(u, v)
			if err != nil {
				// A per-pair routing failure (faulty endpoint, fault set
				// disconnects the pair) is an answer, not a request error.
				status = core.BatchFailed
			} else {
				sc.nodes = append(sc.nodes, path...)
			}
		}
		sc.bs.Status = append(sc.bs.Status, status)
		sc.off = append(sc.off, int32(len(sc.nodes)))
	}
	return nil
}

// pathsBatch bundles the Theorem 5 disjoint paths per pair into the
// two-level columnar layout (pair -> path offsets, path -> node
// offsets).
func pathsBatch(top core.Topology, req *batchRequest, sc *batchScratch) {
	sc.bs.Status = sc.bs.Status[:0]
	sc.off = append(sc.off[:0], 0)
	sc.poff = append(sc.poff[:0], 0)
	sc.nodes = sc.nodes[:0]
	npaths := 0
	for i := range req.src {
		u, v := req.src[i], req.dst[i]
		status := core.BatchOK
		switch {
		case !top.ValidNode(u) || !top.ValidNode(v):
			status = core.BatchBadNode
		default:
			paths, err := top.DisjointPaths(u, v)
			if err != nil {
				status = core.BatchFailed // equal endpoints
			} else {
				for _, p := range paths {
					sc.nodes = append(sc.nodes, p...)
					sc.poff = append(sc.poff, int32(len(sc.nodes)))
					npaths++
				}
			}
		}
		sc.bs.Status = append(sc.bs.Status, status)
		sc.off = append(sc.off, int32(npaths))
	}
}

// encoding -----------------------------------------------------------

// encodeBatchJSON renders the columns by hand (strconv appends into one
// pre-sized buffer): at thousands of pairs per request, reflective
// json.Marshal of the arrays would dominate the batch compute.
func encodeBatchJSON(c *batchColumns) []byte {
	out := appendBatchJSONHead(make([]byte, 0, 64+12*len(c.status)*3+12*len(c.nodes)), c.m, c.n, batchOpNames[c.op])
	out = append(out, `,"count":`...)
	out = strconv.AppendInt(out, int64(len(c.status)), 10)
	if c.op == batchOpFaultRoute {
		out = appendJSONInts(out, "faults", c.faults)
	}
	out = appendJSONInts(out, "status", c.status)
	switch c.op {
	case batchOpDist:
		out = appendJSONInts(out, "dist", c.dist)
	case batchOpRoute:
		out = appendJSONInts(out, "dist", c.dist)
		out = appendJSONInts(out, "off", c.off)
		out = appendJSONInts(out, "nodes", c.nodes)
	case batchOpFaultRoute:
		out = appendJSONInts(out, "off", c.off)
		out = appendJSONInts(out, "nodes", c.nodes)
	case batchOpPaths:
		out = appendJSONInts(out, "pair_off", c.off)
		out = appendJSONInts(out, "path_off", c.poff)
		out = appendJSONInts(out, "nodes", c.nodes)
	}
	return append(out, "}\n"...)
}
