package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Answer validators. Every answer a workload receives passes through
// one of these; each rejection counts as a failed operation. They check
// the answer against label arithmetic on the benchmark's own instances,
// never against the daemon that produced it.

// checker validates answers for the instances a workload touches.
type checker struct {
	tops map[dims]core.Topology
	bs   core.BatchScratch // reference kernel output for batch samples
}

func newChecker(ds ...dims) *checker {
	c := &checker{tops: map[dims]core.Topology{}}
	for _, d := range ds {
		c.tops[d] = core.MustNew(d.M, d.N)
	}
	return c
}

// check validates body as the answer to r; faults is r's fault set for
// /faultroute.
func (c *checker) check(r *request, faults []int, body []byte) error {
	top := c.tops[r.inst]
	switch r.op {
	case opRoute:
		return checkRoute(top, r, body)
	case opFaultRoute:
		return checkFaultRoute(top, r, faults, body)
	case opPaths:
		return checkPaths(top, r, body)
	case opBatch:
		return c.checkBatch(top, r, body)
	}
	return fmt.Errorf("no validator for op %d", r.op)
}

// walk checks that path runs u -> v over edges of top and avoids every
// node in faulty.
func walk(top core.Topology, u, v int, path []int, faulty map[int]bool) error {
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return fmt.Errorf("path does not run %d -> %d", u, v)
	}
	var buf []int
	for i, x := range path {
		if faulty[x] {
			return fmt.Errorf("hop %d visits faulty node %d", i, x)
		}
		if i == 0 {
			continue
		}
		buf = top.AppendNeighbors(path[i-1], buf[:0])
		edge := false
		for _, w := range buf {
			if w == x {
				edge = true
				break
			}
		}
		if !edge {
			return fmt.Errorf("hop %d: %d-%d is not an edge", i, path[i-1], x)
		}
	}
	return nil
}

type echo struct {
	M int `json:"m"`
	N int `json:"n"`
	U int `json:"u"`
	V int `json:"v"`
}

func (e echo) matches(r *request) error {
	if e.M != r.inst.M || e.N != r.inst.N || e.U != r.u || e.V != r.v {
		return fmt.Errorf("answer echoes %+v for %s", e, r.target)
	}
	return nil
}

// checkRoute: endpoints match, every hop is an edge, and the length
// equals the analytic distance.
func checkRoute(top core.Topology, r *request, body []byte) error {
	var a struct {
		echo
		Distance int      `json:"distance"`
		Path     []int    `json:"path"`
		Moves    []string `json:"moves"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("route answer: %v", err)
	}
	if err := a.matches(r); err != nil {
		return err
	}
	if err := walk(top, r.u, r.v, a.Path, nil); err != nil {
		return fmt.Errorf("route %d->%d: %v", r.u, r.v, err)
	}
	want := top.Distance(r.u, r.v)
	if len(a.Path)-1 != want || a.Distance != want || len(a.Moves) != want {
		return fmt.Errorf("route %d->%d: %d hops, distance field %d, %d moves; analytic distance %d",
			r.u, r.v, len(a.Path)-1, a.Distance, len(a.Moves), want)
	}
	return nil
}

// checkFaultRoute: endpoints match, every hop is an edge, no hop is
// faulty, the fault set is echoed and within the m+3 guarantee, and the
// length is the analytic distance when the optimal route was used and
// at least that otherwise.
func checkFaultRoute(top core.Topology, r *request, faults []int, body []byte) error {
	var a struct {
		echo
		Faults          []int  `json:"faults"`
		WithinGuarantee bool   `json:"within_guarantee"`
		Strategy        string `json:"strategy"`
		Path            []int  `json:"path"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("faultroute answer: %v", err)
	}
	if err := a.matches(r); err != nil {
		return err
	}
	if len(a.Faults) != len(faults) {
		return fmt.Errorf("faultroute echoes %d faults, sent %d", len(a.Faults), len(faults))
	}
	faulty := make(map[int]bool, len(faults))
	for i, f := range faults {
		if a.Faults[i] != f {
			return fmt.Errorf("faultroute echoes fault %d, sent %d", a.Faults[i], f)
		}
		faulty[f] = true
	}
	if !a.WithinGuarantee {
		return fmt.Errorf("faultroute: %d faults reported outside the m+3 guarantee", len(faults))
	}
	if err := walk(top, r.u, r.v, a.Path, faulty); err != nil {
		return fmt.Errorf("faultroute %d->%d: %v", r.u, r.v, err)
	}
	want, got := top.Distance(r.u, r.v), len(a.Path)-1
	if got < want || a.Strategy == "optimal" && got != want {
		return fmt.Errorf("faultroute %d->%d: %d hops by %q, analytic distance %d", r.u, r.v, got, a.Strategy, want)
	}
	return nil
}

// checkPaths: m+4 paths, internally vertex-disjoint over real edges
// (graph.VerifyDisjointPaths), none shorter than the distance.
func checkPaths(top core.Topology, r *request, body []byte) error {
	var a struct {
		echo
		Count int     `json:"count"`
		Paths [][]int `json:"paths"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("paths answer: %v", err)
	}
	if err := a.matches(r); err != nil {
		return err
	}
	if want := top.M() + 4; len(a.Paths) != want || a.Count != want {
		return fmt.Errorf("paths %d->%d: %d paths (count field %d), want m+4 = %d", r.u, r.v, len(a.Paths), a.Count, want)
	}
	if err := graph.VerifyDisjointPaths(top, r.u, r.v, a.Paths); err != nil {
		return fmt.Errorf("paths %d->%d: %v", r.u, r.v, err)
	}
	d := top.Distance(r.u, r.v)
	for i, p := range a.Paths {
		if len(p)-1 < d {
			return fmt.Errorf("paths %d->%d: path %d has %d hops, below distance %d", r.u, r.v, i, len(p)-1, d)
		}
	}
	return nil
}

// batchSamples is how many pairs of each batch answer are cross-checked
// against core.RouteBatch; the rest are checked for status and framing.
const batchSamples = 8

// checkBatch parses a binary-codec route answer: the answer's own pair
// count must equal the pairs sent, every status must be OK, the offset
// column must frame the node arena, and sampled pairs must match
// core.RouteBatch on the same endpoints. It reads the frames in place,
// so checking a batch allocates nothing.
func (c *checker) checkBatch(top core.Topology, r *request, body []byte) error {
	a, err := parseBatchRoute(body)
	if err != nil {
		return err
	}
	n := len(r.src)
	if a.pairs != n || len(a.status) != n || len(a.dist) != 4*n || len(a.off) != 4*(n+1) {
		return fmt.Errorf("batch answer holds %d pairs (%d statuses, %d distances, %d offsets), sent %d",
			a.pairs, len(a.status), len(a.dist)/4, len(a.off)/4, n)
	}
	for i, st := range a.status {
		if st != core.BatchOK {
			return fmt.Errorf("batch pair %d: status %d", i, st)
		}
	}
	if at(a.off, 0) != 0 || int(at(a.off, n)) != len(a.nodes)/4 {
		return fmt.Errorf("batch offsets frame [%d,%d) over %d nodes", at(a.off, 0), at(a.off, n), len(a.nodes)/4)
	}
	for i := 0; i < n; i++ {
		if got, d := at(a.off, i+1)-at(a.off, i), at(a.dist, i); got != d+1 {
			return fmt.Errorf("batch pair %d: %d route nodes for distance %d", i, got, d)
		}
	}
	var src, dst, idx [batchSamples]int
	for k := range idx {
		idx[k] = (k*n + n/2) / batchSamples
		src[k], dst[k] = r.src[idx[k]], r.dst[idx[k]]
	}
	if err := core.RouteBatch(top, core.BatchRoute, src[:], dst[:], 1, &c.bs); err != nil {
		return err
	}
	for k, i := range idx {
		if d := at(a.dist, i); c.bs.Dist[k] != d {
			return fmt.Errorf("batch pair %d: distance %d, kernel says %d", i, d, c.bs.Dist[k])
		}
		base := int(at(a.off, i))
		for j, want := range c.bs.Nodes[c.bs.Off[k]:c.bs.Off[k+1]] {
			if got := int(at(a.nodes, base+j)); got != want {
				return fmt.Errorf("batch pair %d: route node %d is %d, kernel says %d", i, j, got, want)
			}
		}
	}
	return nil
}

// batchRoute holds the frames of a binary-codec route answer, undecoded.
type batchRoute struct {
	pairs                    int
	status, dist, off, nodes []byte
}

// at reads the i-th little-endian 32-bit value of a column frame.
func at(frame []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(frame[4*i:])) }

// batchBinMagic opens every binary batch frame stream ("HBB1").
const batchBinMagic = 0x31424248

// parseBatchRoute splits the binary route answer into its frames: a
// 16-byte header (magic, version, op, pair count, path count), then the
// status, distance, offset and node frames, each length-prefixed.
func parseBatchRoute(body []byte) (*batchRoute, error) {
	le := binary.LittleEndian
	next := func() ([]byte, error) {
		if len(body) < 4 {
			return nil, fmt.Errorf("batch answer truncated")
		}
		k := int(le.Uint32(body))
		if k > len(body)-4 {
			return nil, fmt.Errorf("batch frame of %d bytes overruns the %d left", k, len(body)-4)
		}
		f := body[4 : 4+k]
		body = body[4+k:]
		return f, nil
	}
	hdr, err := next()
	if err != nil {
		return nil, err
	}
	if len(hdr) != 16 || le.Uint32(hdr) != batchBinMagic || hdr[6] != 1 {
		return nil, fmt.Errorf("batch answer header is not a route frame")
	}
	a := &batchRoute{pairs: int(le.Uint32(hdr[8:]))}
	for _, f := range []*[]byte{&a.status, &a.dist, &a.off, &a.nodes} {
		if *f, err = next(); err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("batch answer has %d trailing bytes", len(body))
	}
	return a, nil
}
