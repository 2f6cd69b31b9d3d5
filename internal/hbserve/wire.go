package hbserve

import (
	"encoding/binary"
	"fmt"
)

// The binary /batch codec (application/x-hbbatch, "HBB1") for every
// hop: client to router, router to replica, replica back to router,
// router back to client. A body is a sequence of little-endian frames,
// each prefixed by its u32 byte length:
//
//	request:  header(24) | faults | src | dst
//	response: header(16) | status | [dist] | [off | pair_off] | [path_off] | [nodes]
//
// Both headers open with magic u32, version u16, op u8 and a pad byte;
// the request header then carries m, n, pairs and faults as u32, the
// response header pairs and total paths. Value columns are u32 per
// entry, except the response's status column (u8 per pair). The README
// ("Batch serving") documents the same layout for clients.

const (
	// batchBinMagic opens every header frame ("HBB1" on the wire).
	batchBinMagic uint32 = 0x31424248
	// batchBinVersion is the framing version; both sides reject others.
	batchBinVersion uint16 = 1
	// wirePreamble is the header bytes before the u32 fields: magic,
	// version, op and pad.
	wirePreamble = 8
)

// Binary op codes (wire values, stable).
const (
	batchOpDist       uint8 = 0
	batchOpRoute      uint8 = 1
	batchOpPaths      uint8 = 2
	batchOpFaultRoute uint8 = 3
)

var batchOpNames = map[uint8]string{
	batchOpDist:       "dist",
	batchOpRoute:      "route",
	batchOpPaths:      "paths",
	batchOpFaultRoute: "faultroute",
}

var batchOpCodes = map[string]uint8{
	"dist":       batchOpDist,
	"route":      batchOpRoute,
	"paths":      batchOpPaths,
	"faultroute": batchOpFaultRoute,
}

var le = binary.LittleEndian

// nextFrame pops one length-prefixed frame.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("truncated frame: %d bytes left, need a 4-byte length", len(data))
	}
	n := le.Uint32(data)
	if uint64(n) > uint64(len(data)-4) {
		return nil, nil, fmt.Errorf("frame length %d exceeds remaining %d bytes", n, len(data)-4)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// appendHeader appends a header frame: the preamble, then fields as
// u32 (request: m, n, pairs, faults; response: pairs, total paths).
func appendHeader(out []byte, op uint8, fields ...uint32) []byte {
	out = le.AppendUint32(out, uint32(wirePreamble+4*len(fields)))
	out = le.AppendUint32(out, batchBinMagic)
	out = le.AppendUint16(out, batchBinVersion)
	out = append(out, op, 0)
	for _, f := range fields {
		out = le.AppendUint32(out, f)
	}
	return out
}

// readHeader pops a header frame of exactly len(fields) u32 fields,
// checks its magic and version, and fills fields.
func readHeader(data []byte, fields []uint32) (op uint8, rest []byte, err error) {
	hdr, rest, err := nextFrame(data)
	if err != nil {
		return 0, nil, err
	}
	if want := wirePreamble + 4*len(fields); len(hdr) != want {
		return 0, nil, fmt.Errorf("header frame is %d bytes, want %d", len(hdr), want)
	}
	if m := le.Uint32(hdr); m != batchBinMagic {
		return 0, nil, fmt.Errorf("magic %#x, want %#x", m, batchBinMagic)
	}
	if v := le.Uint16(hdr[4:]); v != batchBinVersion {
		return 0, nil, fmt.Errorf("version %d, want %d", v, batchBinVersion)
	}
	for i := range fields {
		fields[i] = le.Uint32(hdr[wirePreamble+4*i:])
	}
	return hdr[6], rest, nil
}

// peekHeader reads the leading u32 fields of a header frame at their
// fixed offsets, checking only that the body is long enough and opens
// with the magic; the rest of the frame is left for the full decode.
func peekHeader(data []byte, fields []uint32) bool {
	const at = 4 + wirePreamble
	if len(data) < at+4*len(fields) || le.Uint32(data[4:]) != batchBinMagic {
		return false
	}
	for i := range fields {
		fields[i] = le.Uint32(data[at+4*i:])
	}
	return true
}

// appendColumn appends one u32 column frame.
func appendColumn[T int | int32](out []byte, vals []T) []byte {
	out = le.AppendUint32(out, uint32(4*len(vals)))
	for _, v := range vals {
		out = le.AppendUint32(out, uint32(v))
	}
	return out
}

// readColumn pops one u32 column frame that must hold exactly want
// values. Values widen unsigned into int, so 0xFFFFFFFF reads as
// 4294967295 (an out-of-range node, not -1); int32 keeps the bits.
func readColumn[T int | int32](data []byte, want int, name string) (vals []T, rest []byte, err error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s frame: %v", name, err)
	}
	if want < 0 || len(payload) != 4*want {
		return nil, nil, fmt.Errorf("%s frame is %d bytes, header promised %d values", name, len(payload), want)
	}
	vals = make([]T, want)
	for i := range vals {
		vals[i] = T(le.Uint32(payload[4*i:]))
	}
	return vals, rest, nil
}

// checkOffsets requires an offset column to start at 0, never
// decrease and end at n, the length of the column it indexes.
func checkOffsets(off []int32, n int, name string) error {
	if off[0] != 0 || int(off[len(off)-1]) != n {
		return fmt.Errorf("%s spans [%d,%d], want [0,%d]", name, off[0], off[len(off)-1], n)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%s decreases at %d", name, i)
		}
	}
	return nil
}

// requests ------------------------------------------------------------

// EncodeBatchBinRequest renders a /batch request body in the binary
// codec: header frame, then faults, src and dst column frames.
func EncodeBatchBinRequest(op string, m, n int, faults, src, dst []int) ([]byte, error) {
	code, ok := batchOpCodes[op]
	if !ok {
		return nil, fmt.Errorf("hbserve: unknown batch op %q", op)
	}
	return encodeBatchBinRequest(code, m, n, faults, src, dst), nil
}

// encodeBatchBinRequest is EncodeBatchBinRequest from the op code; the
// router encodes its sub-batches with it.
func encodeBatchBinRequest(op uint8, m, n int, faults, src, dst []int) []byte {
	out := make([]byte, 0, 4+24+12+4*(len(faults)+len(src)+len(dst)))
	out = appendHeader(out, op, uint32(m), uint32(n), uint32(len(src)), uint32(len(faults)))
	out = appendColumn(out, faults)
	out = appendColumn(out, src)
	return appendColumn(out, dst)
}

// parseBatchBin decodes the binary request: header, faults, src, dst.
func parseBatchBin(body []byte) (*batchRequest, error) {
	var hdr [4]uint32 // m, n, pairs, faults
	op, rest, err := readHeader(body, hdr[:])
	if err != nil {
		return nil, badRequest("bad binary batch: %v", err)
	}
	if _, ok := batchOpNames[op]; !ok {
		return nil, badRequest("bad binary batch: unknown op code %d", op)
	}
	req := &batchRequest{codec: "bin", op: op, m: int(hdr[0]), n: int(hdr[1])}
	npairs, nfaults := int(hdr[2]), int(hdr[3])
	if npairs > maxBatchPairs {
		return nil, badRequest("%d pairs over the per-request cap %d", npairs, maxBatchPairs)
	}
	if req.faults, rest, err = readColumn[int](rest, nfaults, "faults"); err != nil {
		return nil, badRequest("bad binary batch: %v", err)
	}
	if req.src, rest, err = readColumn[int](rest, npairs, "src"); err != nil {
		return nil, badRequest("bad binary batch: %v", err)
	}
	if req.dst, rest, err = readColumn[int](rest, npairs, "dst"); err != nil {
		return nil, badRequest("bad binary batch: %v", err)
	}
	if len(rest) != 0 {
		return nil, badRequest("bad binary batch: %d trailing bytes after dst frame", len(rest))
	}
	return req, nil
}

// responses -----------------------------------------------------------

// encodeBatchBin renders the response: the header (op, pair count,
// total path count), the status column, then the op's value columns.
func encodeBatchBin(c *batchColumns) []byte {
	npairs := len(c.status)
	totalPaths := 0
	if c.op == batchOpPaths {
		totalPaths = len(c.poff) - 1
	}
	size := 4 + 16 + (4 + npairs) + (4 + 4*len(c.dist)) + (4 + 4*len(c.off)) + (4 + 4*len(c.poff)) + (4 + 4*len(c.nodes))
	out := appendHeader(make([]byte, 0, size), c.op, uint32(npairs), uint32(totalPaths))
	out = le.AppendUint32(out, uint32(npairs))
	out = append(out, c.status...)
	if c.op == batchOpDist || c.op == batchOpRoute {
		out = appendColumn(out, c.dist)
	}
	switch c.op {
	case batchOpRoute, batchOpFaultRoute:
		out = appendColumn(out, c.off)
		out = appendColumn(out, c.nodes)
	case batchOpPaths:
		out = appendColumn(out, c.off)
		out = appendColumn(out, c.poff)
		out = appendColumn(out, c.nodes)
	}
	return out
}

// decodeBatchBinResponse parses a replica's binary answer to a
// sub-batch of pairs. The input buffer is pooled, so every column is
// copied out. The offset columns are checked to index their arenas,
// so a corrupt answer is an error here, not a panic in the merge.
func decodeBatchBinResponse(body []byte, op uint8, pairs int) (*batchColumns, error) {
	var hdr [2]uint32 // pairs, total paths
	gotOp, rest, err := readHeader(body, hdr[:])
	if err != nil {
		return nil, err
	}
	if gotOp != op {
		return nil, fmt.Errorf("op %d, want %d", gotOp, op)
	}
	if got := int(hdr[0]); got != pairs {
		return nil, fmt.Errorf("%d pairs answered, sent %d", got, pairs)
	}
	totalPaths := int(hdr[1])

	cols := &batchColumns{op: op}
	st, rest, err := nextFrame(rest)
	if err != nil || len(st) != pairs {
		return nil, fmt.Errorf("status frame (%d bytes, err %v)", len(st), err)
	}
	cols.status = append([]uint8(nil), st...)
	if op == batchOpDist || op == batchOpRoute {
		if cols.dist, rest, err = readColumn[int32](rest, pairs, "dist"); err != nil {
			return nil, err
		}
	}
	switch op {
	case batchOpRoute, batchOpFaultRoute:
		if cols.off, rest, err = readColumn[int32](rest, pairs+1, "off"); err != nil {
			return nil, err
		}
		if cols.nodes, rest, err = readColumn[int](rest, int(cols.off[pairs]), "nodes"); err != nil {
			return nil, err
		}
		if err = checkOffsets(cols.off, len(cols.nodes), "off"); err != nil {
			return nil, err
		}
	case batchOpPaths:
		if cols.off, rest, err = readColumn[int32](rest, pairs+1, "pair_off"); err != nil {
			return nil, err
		}
		if err = checkOffsets(cols.off, totalPaths, "pair_off"); err != nil {
			return nil, err
		}
		if cols.poff, rest, err = readColumn[int32](rest, totalPaths+1, "path_off"); err != nil {
			return nil, err
		}
		if cols.nodes, rest, err = readColumn[int](rest, int(cols.poff[totalPaths]), "nodes"); err != nil {
			return nil, err
		}
		if err = checkOffsets(cols.poff, len(cols.nodes), "path_off"); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return cols, nil
}
