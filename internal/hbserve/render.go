package hbserve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
)

// Single-query response encoders. /route, /paths and /faultroute bodies
// are appended field by field with strconv into one buffer; the output
// is byte-identical to json.Marshal of the response structs these
// encoders replaced, trailing newline included (the golden differential
// test keeps that reflection rendering as its oracle).

// singleScratch is the pooled working set of one /route or /faultroute
// request: the kernel's node buffer, the parsed fault list and the
// rendered body. Nothing in it outlives the request.
type singleScratch struct {
	nodes  []int
	faults []int
	body   []byte
}

// maxPooledBody keeps an outsized body (a long fault detour) from
// pinning its buffer in the pool.
const maxPooledBody = 64 << 10

var singleScratchPool = sync.Pool{New: func() any { return new(singleScratch) }}

func getSingleScratch() *singleScratch { return singleScratchPool.Get().(*singleScratch) }

func putSingleScratch(sc *singleScratch) {
	if cap(sc.body) > maxPooledBody {
		sc.body = nil
	}
	singleScratchPool.Put(sc)
}

// appendPairHead opens a body with the fields every pair query echoes.
func appendPairHead(out []byte, d Dims, u, v int) []byte {
	out = append(out, `{"m":`...)
	out = strconv.AppendInt(out, int64(d.M), 10)
	out = append(out, `,"n":`...)
	out = strconv.AppendInt(out, int64(d.N), 10)
	out = append(out, `,"u":`...)
	out = strconv.AppendInt(out, int64(u), 10)
	out = append(out, `,"v":`...)
	return strconv.AppendInt(out, int64(v), 10)
}

// appendBodyEnd closes a body, with the verified flag json's omitempty
// would emit.
func appendBodyEnd(out []byte, verified bool) []byte {
	if verified {
		out = append(out, `,"verified":true`...)
	}
	return append(out, "}\n"...)
}

// appendRouteBody renders a /route answer. Each move is named from its
// hop, so the path is the only kernel output the encoder needs.
func appendRouteBody(out []byte, top core.Topology, d Dims, path []int, verified bool) []byte {
	out = appendPairHead(out, d, path[0], path[len(path)-1])
	out = append(out, `,"distance":`...)
	out = strconv.AppendInt(out, int64(len(path)-1), 10)
	out = appendJSONInts(out, "path", path)
	out = append(out, `,"moves":[`...)
	for i := 1; i < len(path); i++ {
		mv, ok := top.MoveBetween(path[i-1], path[i])
		if !ok {
			panic(fmt.Sprintf("hbserve: route hop %d-%d is not an edge", path[i-1], path[i]))
		}
		if i > 1 {
			out = append(out, ',')
		}
		out = append(mv.AppendName(append(out, '"')), '"')
	}
	return appendBodyEnd(append(out, ']'), verified)
}

// appendPathsBody renders a /paths answer.
func appendPathsBody(out []byte, d Dims, u, v int, paths [][]int, verified bool) []byte {
	out = appendPairHead(out, d, u, v)
	out = append(out, `,"count":`...)
	out = strconv.AppendInt(out, int64(len(paths)), 10)
	out = append(out, `,"paths":[`...)
	for i, p := range paths {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendIntArray(out, p)
	}
	return appendBodyEnd(append(out, ']'), verified)
}

// appendFaultRouteBody renders a /faultroute answer.
func appendFaultRouteBody(out []byte, d Dims, u, v int, faults []int, within bool, strategy string, path []int) []byte {
	out = appendPairHead(out, d, u, v)
	out = appendJSONInts(out, "faults", faults)
	out = append(out, `,"within_guarantee":`...)
	out = strconv.AppendBool(out, within)
	out = append(out, `,"strategy":`...)
	out = appendJSONString(out, strategy)
	out = appendJSONInts(out, "path", path)
	return append(out, "}\n"...)
}

// appendJSONInts renders one named JSON int array field, comma first.
func appendJSONInts[T int | int32 | uint8](out []byte, name string, vals []T) []byte {
	out = append(out, ',', '"')
	out = append(out, name...)
	return appendIntArray(append(out, '"', ':'), vals)
}

// appendIntArray renders one JSON int array ([] for an empty slice).
func appendIntArray[T int | int32 | uint8](out []byte, vals []T) []byte {
	out = append(out, '[')
	for i, v := range vals {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(v), 10)
	}
	return append(out, ']')
}

// appendJSONString quotes s as encoding/json does. Plain printable
// ASCII (every strategy name) is copied straight through; anything
// json would escape takes the reflective encoder.
func appendJSONString(out []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(out, b...)
		}
	}
	out = append(out, '"')
	out = append(out, s...)
	return append(out, '"')
}
