package hbserve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// corruptRouteAnswer is a well-framed binary route answer for pairs
// pairs whose offsets overrun the node arena: off = [0,5,2,2,...] with
// 2 nodes. Its last offset matches the arena, so only the offset check
// can refuse it.
func corruptRouteAnswer(pairs int) []byte {
	c := &batchColumns{
		op:     batchOpRoute,
		status: make([]uint8, pairs),
		dist:   make([]int32, pairs),
		off:    make([]int32, pairs+1),
		nodes:  []int{0, 9},
	}
	for i := 1; i <= pairs; i++ {
		c.off[i] = 2
	}
	c.off[1] = 5
	return encodeBatchBin(c)
}

// TestDecodeBatchBinResponseOffsets: every offset column must start at
// 0, never decrease and end at the length of the column it indexes,
// and pair_off must stay inside path_off; anything else is a corrupt
// replica answer, not a panic in the merge.
func TestDecodeBatchBinResponseOffsets(t *testing.T) {
	route := func(off []int32, nodes []int) []byte {
		pairs := len(off) - 1
		return encodeBatchBin(&batchColumns{op: batchOpRoute, status: make([]uint8, pairs),
			dist: make([]int32, pairs), off: off, nodes: nodes})
	}
	paths := func(pairOff, pathOff []int32, nodes []int) []byte {
		return encodeBatchBin(&batchColumns{op: batchOpPaths, status: make([]uint8, len(pairOff)-1),
			off: pairOff, poff: pathOff, nodes: nodes})
	}
	for _, tc := range []struct {
		name string
		op   uint8
		body []byte
		ok   bool
	}{
		{"route well formed", batchOpRoute, route([]int32{0, 2, 5}, []int{1, 2, 3, 4, 5}), true},
		{"route empty", batchOpRoute, route([]int32{0}, nil), true},
		{"route overrun", batchOpRoute, corruptRouteAnswer(2), false},
		{"route nonzero start", batchOpRoute, route([]int32{1, 1, 2}, []int{1, 2}), false},
		{"route decreasing", batchOpRoute, route([]int32{0, 2, 1, 3}, []int{1, 2, 3}), false},
		{"route negative end", batchOpRoute, route([]int32{0, -1}, nil), false},
		{"paths well formed", batchOpPaths, paths([]int32{0, 2, 2}, []int32{0, 3, 5}, []int{1, 2, 3, 4, 5}), true},
		{"pair_off past path_off", batchOpPaths, paths([]int32{0, 3, 3}, []int32{0, 3, 5}, []int{1, 2, 3, 4, 5}), false},
		{"pair_off decreasing", batchOpPaths, paths([]int32{0, 2, 1, 2}, []int32{0, 3, 5}, []int{1, 2, 3, 4, 5}), false},
		{"path_off overrun", batchOpPaths, paths([]int32{0, 1, 2}, []int32{0, 7, 5}, []int{1, 2, 3, 4, 5}), false},
		{"path_off nonzero start", batchOpPaths, paths([]int32{0, 1}, []int32{2, 5}, []int{1, 2, 3, 4, 5}), false},
	} {
		pairs := 0
		if hdr := [1]uint32{}; peekHeader(tc.body, hdr[:]) {
			pairs = int(hdr[0])
		}
		_, err := decodeBatchBinResponse(tc.body, tc.op, pairs)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// corruptReplica is a replica that answers every binary /batch with
// corruptRouteAnswer sized to the sub-batch, and is healthy otherwise.
func corruptReplica(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/batch" {
			w.WriteHeader(http.StatusOK)
			return
		}
		body, _ := io.ReadAll(r.Body)
		req, err := parseBatchBin(body)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeBody(w, ctBatchBin, "", corruptRouteAnswer(len(req.src)))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterCorruptReplicaAnswer: a sub-batch answered with overrunning
// offsets retries on the other owner, and a fleet with no sound
// replica answers an error status; the client's connection survives
// both.
func TestRouterCorruptReplicaAnswer(t *testing.T) {
	var src, dst []int
	for i := 0; i < 64; i++ {
		src = append(src, (i*5)%96)
		dst = append(dst, (i*11+7)%96)
	}
	body, err := EncodeBatchBinRequest("route", 2, 3, nil, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	post := func(base string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/batch", ctBatchBin, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("connection lost: %v", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("connection lost mid-body: %v", err)
		}
		return resp, raw
	}

	fleet := newTestFleet(t, 1)
	_, want := post(fleet.URLs()[0])
	rt, ts := newTestRouter(t, ClusterConfig{
		Replicas:        []string{corruptReplica(t).URL, fleet.URLs()[0]},
		ScatterMinPairs: 2,
		EjectAfter:      100,
	})
	resp, got := post(ts.URL)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("status %d: scattered answer past a corrupt replica differs from the sound one: %s", resp.StatusCode, truncateForLog(got))
	}
	if st := rt.Status(); st.SubbatchRetries == 0 {
		t.Error("the corrupt sub-batch was not retried")
	}

	_, ts = newTestRouter(t, ClusterConfig{
		Replicas:        []string{corruptReplica(t).URL, corruptReplica(t).URL},
		ScatterMinPairs: 2,
		EjectAfter:      100,
	})
	resp, got = post(ts.URL)
	if resp.StatusCode < 500 || !strings.Contains(string(got), "error") {
		t.Fatalf("all-corrupt fleet answered %d: %s", resp.StatusCode, truncateForLog(got))
	}
}

// FuzzBatchRequest holds both request decoders to the client trust
// boundary: parseBatchBody never panics under either Content-Type, and
// an accepted binary request re-encodes to the bytes it was read from
// (the header's pad byte aside, which readers ignore).
func FuzzBatchRequest(f *testing.F) {
	src, dst := batchPairs(96)
	for op := range batchOpNames {
		var faults []int
		if op == batchOpFaultRoute {
			faults = []int{5, 17}
		}
		f.Add(true, binBatchBody(op, 2, 3, faults, src, dst))
		f.Add(false, EncodeBatchJSONRequest(batchOpNames[op], 2, 3, src, dst))
	}
	for _, c := range batchGoldenMalformed(f) {
		f.Add(c[0] == ctBatchBin, []byte(c[1]))
	}
	f.Fuzz(func(t *testing.T, bin bool, body []byte) {
		ct := ctJSON
		if bin {
			ct = ctBatchBin
		}
		req, err := parseBatchBody(ct, body)
		if err != nil || !bin {
			return
		}
		again := encodeBatchBinRequest(req.op, req.m, req.n, req.faults, req.src, req.dst)
		again[11] = body[11]
		if !bytes.Equal(again, body) {
			t.Fatalf("accepted request re-encodes differently:\n got %x\nwant %x", again, body)
		}
	})
}

// FuzzBatchResponse holds the router's response decoder to the replica
// trust boundary: decodeBatchBinResponse never panics, and an accepted
// answer goes through the merge and both encoders. Merging one
// sub-batch that covers every pair in order is the identity, so the
// merged columns re-encode and decode back to themselves.
func FuzzBatchResponse(f *testing.F) {
	h := NewServer(Config{}).Handler()
	src, dst := batchPairs(96)
	for op := range batchOpNames {
		var faults []int
		if op == batchOpFaultRoute {
			faults = []int{5, 17}
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(binBatchBody(op, 2, 3, faults, src, dst))))
		f.Add(w.Body.Bytes(), op, uint8(len(src)))
	}
	f.Add(corruptRouteAnswer(2), batchOpRoute, uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, op, npairs uint8) {
		op %= 4
		pairs := int(npairs)
		cols, err := decodeBatchBinResponse(body, op, pairs)
		if err != nil {
			return
		}
		req := &batchRequest{op: op, m: 2, n: 3, src: make([]int, pairs), dst: make([]int, pairs)}
		localIdx := make([]int32, pairs)
		for i := range localIdx {
			localIdx[i] = int32(i)
		}
		merged, err := mergeSubBatches(req, []*subBatch{{cols: cols}}, make([]int16, pairs), localIdx)
		if err != nil {
			t.Fatal(err)
		}
		encodeBatchJSON(merged)
		back, err := decodeBatchBinResponse(encodeBatchBin(merged), op, pairs)
		if err != nil {
			t.Fatalf("merged answer does not decode: %v", err)
		}
		if !slices.Equal(back.status, cols.status) || !slices.Equal(back.dist, cols.dist) ||
			!slices.Equal(back.off, cols.off) || !slices.Equal(back.poff, cols.poff) ||
			!slices.Equal(back.nodes, cols.nodes) {
			t.Fatalf("merging one whole sub-batch changed the columns:\n got %+v\nwant %+v", back, cols)
		}
	})
}
