package hbserve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Scatter-gather batch routing. A /batch body that reaches the router
// is decoded (both codecs), its pairs are partitioned by their
// (m,n,u,v) ring owner sets, and one sub-batch per chosen replica is
// fanned out concurrently over the keep-alive transport — so a single
// client batch is answered by the whole fleet instead of serializing
// on the one replica that owns the (m,n) header key. The sub-responses
// are re-merged into a single response in the original pair order and
// re-encoded in the client's codec, byte-exact with what one replica
// would have produced for the whole body.
//
// Pair placement uses the replicated owner set: each pair's key maps
// to its first R distinct alive replicas clockwise (ring.LookupN), and
// the pair goes to the least-loaded member by in-flight pair count —
// power-of-two-choices when R is the default 2. A sub-batch that fails
// in transport (or is shed with a 5xx) retries against the next alive
// owner, so a replica killed mid-batch loses zero pairs; a 4xx is the
// request's own fault and propagates without retry. Sub-requests are
// always encoded in the binary codec: it is the cheaper frame to build
// and parse, and the merge re-encodes the client's codec at the end.

// forwardBatch validates and routes one buffered /batch POST. A body
// whose dims cannot even be peeked (truncated binary header, JSON with
// missing or negative m/n, a Content-Type whose body doesn't parse)
// answers 400 at the router — garbage is rejected at the edge, not
// forwarded into the fleet.
func (rt *Router) forwardBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	if len(body) > maxBatchBody {
		writeErr(w, badRequest("batch body %d bytes over the %d cap", len(body), maxBatchBody))
		return
	}
	ct := r.Header.Get("Content-Type")
	if _, _, ok := peekBatchDims(ct, body); !ok {
		writeErr(w, badRequest("unreadable batch dims (want explicit non-negative m and n)"))
		return
	}
	req, err := parseBatchBody(ct, body)
	if err != nil {
		writeErr(w, err)
		return
	}
	d := Dims{M: req.m, N: req.n}
	if rt.scatterMin < 0 || len(req.src) < rt.scatterMin ||
		len(rt.replicas) < 2 || rt.health.HealthyCount() < 2 {
		// Too small to win from splitting (or nothing to split across):
		// the whole body forwards to the (m,n) key's owner set.
		rt.forwardKeyed(w, r, shardKey(d, 0, 0), body)
		return
	}
	rt.scatterBatch(w, r, req)
}

// subBatch is one replica's slice of a scattered request.
type subBatch struct {
	replica int   // chosen owner (first attempt target)
	idx     []int // original pair indices, ascending
	body    []byte

	cols     *batchColumns // decoded answer
	answered int           // replica that actually answered
	err      error
}

// scatterBatch partitions, fans out, gathers, merges, and answers.
func (rt *Router) scatterBatch(w http.ResponseWriter, r *http.Request, req *batchRequest) {
	d := Dims{M: req.m, N: req.n}
	n := len(rt.replicas)
	pairs := len(req.src)
	alive := func(i int) bool { return rt.health.Healthy(i) }

	// Partition: each pair goes to the least-loaded member of its owner
	// set, counting both globally in-flight pairs and pairs already
	// assigned in this batch so one scatter cannot dogpile an owner.
	assign := make([]int16, pairs)
	localIdx := make([]int32, pairs)
	perCount := make([]int32, n)
	local := make([]int64, n)
	var keyBuf [44]byte
	owners := make([]int, 0, rt.replication)
	for i := 0; i < pairs; i++ {
		key := shardKeyAppend(d, req.src[i], req.dst[i], keyBuf[:0])
		owners = rt.ring.LookupN(key, rt.replication, alive, owners[:0])
		if len(owners) == 0 {
			rt.noReplica.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, &httpError{code: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("no live replica (%d/%d healthy)", rt.health.HealthyCount(), n)})
			return
		}
		best := owners[0]
		bestLoad := rt.inflight[best].Load() + local[best]
		for _, o := range owners[1:] {
			if l := rt.inflight[o].Load() + local[o]; l < bestLoad {
				best, bestLoad = o, l
			}
		}
		assign[i] = int16(best)
		localIdx[i] = perCount[best]
		perCount[best]++
		local[best]++
	}

	// Build one sub-batch per chosen replica.
	subs := make([]*subBatch, 0, n)
	subOf := make([]*subBatch, n)
	for rep := 0; rep < n; rep++ {
		if perCount[rep] == 0 {
			continue
		}
		sb := &subBatch{replica: rep, idx: make([]int, 0, perCount[rep])}
		subs = append(subs, sb)
		subOf[rep] = sb
	}
	src := make([]int, 0, pairs)
	dst := make([]int, 0, pairs)
	for _, sb := range subs {
		from := len(src)
		for i := 0; i < pairs; i++ {
			if int(assign[i]) == sb.replica {
				sb.idx = append(sb.idx, i)
				src = append(src, req.src[i])
				dst = append(dst, req.dst[i])
			}
		}
		sb.body = encodeBatchBinRequest(req.op, req.m, req.n, req.faults, src[from:], dst[from:])
	}

	// Fan out concurrently; gather everything before answering.
	var wg sync.WaitGroup
	for _, sb := range subs {
		wg.Add(1)
		go func(sb *subBatch) {
			defer wg.Done()
			rt.sendSubBatch(r, req.op, sb)
		}(sb)
	}
	wg.Wait()
	rt.subPairs.Add(uint64(pairs))

	var answered []string
	for _, sb := range subs {
		if sb.err != nil {
			// One lost sub-batch fails the whole request: a partial
			// merge would silently drop pairs, which is exactly what
			// the retry machinery exists to prevent.
			if he, ok := sb.err.(*httpError); ok && he.code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, sb.err)
			return
		}
		answered = append(answered, rt.replicas[sb.answered])
	}

	merged, err := mergeSubBatches(req, subs, assign, localIdx)
	if err != nil {
		writeErr(w, &httpError{code: http.StatusBadGateway, msg: err.Error()})
		return
	}
	var out []byte
	if req.codec == "bin" {
		out = encodeBatchBin(merged)
	} else {
		out = encodeBatchJSON(merged)
	}
	h := w.Header()
	h.Set("X-Scatter", strconv.Itoa(len(subs)))
	h.Set("X-Replica", strings.Join(answered, ","))
	writeBody(w, req.contentType(), "", out)
}

// sendSubBatch posts one sub-batch to its chosen owner, retrying
// transport failures and 5xx sheds against the next alive owner by
// in-flight load, under the shared attempt budget. On success the
// decoded columns land in sb.cols.
func (rt *Router) sendSubBatch(r *http.Request, op uint8, sb *subBatch) {
	tried := make([]bool, len(rt.replicas))
	target := sb.replica
	load := int64(len(sb.idx))
	for attempt := 0; attempt < rt.attempts && target >= 0; attempt++ {
		tried[target] = true
		if attempt == 0 {
			rt.subFanout.Add(1)
		} else {
			rt.subRetries.Add(1)
		}
		rt.inflight[target].Add(load)
		cols, err, retry := rt.postSubBatch(r, target, op, len(sb.idx), sb.body)
		rt.inflight[target].Add(-load)
		if err == nil {
			sb.cols = cols
			sb.answered = target
			rt.health.replicas[target].forwarded.Add(1)
			return
		}
		if !retry {
			sb.err = err
			return
		}
		rt.health.ReportFailure(target)
		rt.retries.Add(1)
		target = rt.nextAliveOwner(tried)
	}
	sb.err = &httpError{code: http.StatusServiceUnavailable,
		msg: fmt.Sprintf("no live replica for sub-batch (%d/%d healthy)", rt.health.HealthyCount(), len(rt.replicas))}
}

// nextAliveOwner picks the least-loaded alive replica not yet tried,
// or -1. After the pair's own owners failed this is the clockwise
// spill generalised to load order — the batch equivalent of walking
// past the owner set.
func (rt *Router) nextAliveOwner(tried []bool) int {
	best := -1
	var bestLoad int64
	for i := range rt.replicas {
		if tried[i] || !rt.health.Healthy(i) {
			continue
		}
		if l := rt.inflight[i].Load(); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// postSubBatch performs one binary-codec sub-request against replica i.
// retry reports whether the failure is the replica's fault (transport
// error, 5xx) rather than the request's (4xx).
func (rt *Router) postSubBatch(r *http.Request, i int, op uint8, pairs int, body []byte) (cols *batchColumns, err error, retry bool) {
	req, rerr := http.NewRequestWithContext(r.Context(), http.MethodPost, rt.replicas[i]+"/batch", bytes.NewReader(body))
	if rerr != nil {
		return nil, rerr, false
	}
	req.Header.Set("Content-Type", ctBatchBin)
	resp, rerr := rt.client.Do(req)
	if rerr != nil {
		return nil, rerr, true
	}
	defer resp.Body.Close()
	buf := rt.bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer rt.bodyPool.Put(buf)
	if _, rerr = buf.ReadFrom(resp.Body); rerr != nil {
		return nil, rerr, true
	}
	if resp.StatusCode/100 != 2 {
		herr := &httpError{code: resp.StatusCode, msg: fmt.Sprintf("replica %s: %s", rt.replicas[i], bytes.TrimSpace(buf.Bytes()))}
		return nil, herr, resp.StatusCode >= 500
	}
	cols, rerr = decodeBatchBinResponse(buf.Bytes(), op, pairs)
	if rerr != nil {
		// A 2xx the router cannot decode is a corrupt replica; retrying
		// elsewhere is safe and the failure feeds ejection.
		return nil, fmt.Errorf("replica %s: bad batch response: %v", rt.replicas[i], rerr), true
	}
	return cols, nil, false
}

// mergeSubBatches reassembles the sub-responses into one column set in
// the original pair order. Offsets are rebased (they are prefix sums
// into each sub-response's private arena), so the merged response is
// byte-identical to a single replica answering the whole batch.
func mergeSubBatches(req *batchRequest, subs []*subBatch, assign []int16, localIdx []int32) (*batchColumns, error) {
	pairs := len(req.src)
	bySub := make(map[int16]*batchColumns, len(subs))
	for _, sb := range subs {
		bySub[int16(sb.replica)] = sb.cols
	}
	at := func(i int) (*batchColumns, int32) { return bySub[assign[i]], localIdx[i] }

	merged := &batchColumns{op: req.op, m: req.m, n: req.n, faults: req.faults}
	merged.status = make([]uint8, pairs)
	for i := 0; i < pairs; i++ {
		c, j := at(i)
		merged.status[i] = c.status[j]
	}
	if req.op == batchOpDist || req.op == batchOpRoute {
		merged.dist = make([]int32, pairs)
		for i := 0; i < pairs; i++ {
			c, j := at(i)
			merged.dist[i] = c.dist[j]
		}
	}

	switch req.op {
	case batchOpRoute, batchOpFaultRoute:
		merged.off = make([]int32, pairs+1)
		total := int32(0)
		for i := 0; i < pairs; i++ {
			c, j := at(i)
			total += c.off[j+1] - c.off[j]
			merged.off[i+1] = total
		}
		merged.nodes = make([]int, total)
		for i := 0; i < pairs; i++ {
			c, j := at(i)
			copy(merged.nodes[merged.off[i]:merged.off[i+1]], c.nodes[c.off[j]:c.off[j+1]])
		}

	case batchOpPaths:
		merged.off = make([]int32, pairs+1)
		npaths, nnodes := int32(0), int32(0)
		for i := 0; i < pairs; i++ {
			c, j := at(i)
			npaths += c.off[j+1] - c.off[j]
			merged.off[i+1] = npaths
			for q := c.off[j]; q < c.off[j+1]; q++ {
				nnodes += c.poff[q+1] - c.poff[q]
			}
		}
		merged.poff = make([]int32, 1, npaths+1)
		merged.nodes = make([]int, 0, nnodes)
		for i := 0; i < pairs; i++ {
			c, j := at(i)
			for q := c.off[j]; q < c.off[j+1]; q++ {
				merged.nodes = append(merged.nodes, c.nodes[c.poff[q]:c.poff[q+1]]...)
				merged.poff = append(merged.poff, int32(len(merged.nodes)))
			}
		}
	}
	return merged, nil
}
