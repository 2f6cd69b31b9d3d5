package snapshot_test

import (
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// TestRoundTrip is the snapshot differential gate: build live, write,
// mmap-load, and every query against the loaded snapshot must equal the
// live computation on HB(2,3) and HB(3,3).
func TestRoundTrip(t *testing.T) {
	for _, dims := range []struct{ m, n int }{{2, 3}, {3, 3}} {
		hb := core.MustNew(dims.m, dims.n)
		built, err := snapshot.Build(hb, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snap.hbsnap")
		if err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := snapshot.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()

		if loaded.M != dims.m || loaded.N != dims.n || loaded.Order != hb.Order() {
			t.Fatalf("HB(%d,%d): loaded identity %d/%d/%d", dims.m, dims.n, loaded.M, loaded.N, loaded.Order)
		}
		// Histogram against the independent sweep entry point.
		liveHist := graph.DistanceHistogram(hb)
		if !reflect.DeepEqual(loaded.Hist, liveHist) {
			t.Errorf("HB(%d,%d): hist %v, live %v", dims.m, dims.n, loaded.Hist, liveHist)
		}
		// Eccentricities per node against single-source BFS.
		for _, v := range []int{0, 1, hb.Order() / 2, hb.Order() - 1} {
			liveEcc, connected := graph.Eccentricity(hb, v)
			if !connected {
				t.Fatalf("HB(%d,%d) disconnected at %d", dims.m, dims.n, v)
			}
			if got := loaded.Eccentricity(v); got != liveEcc {
				t.Errorf("HB(%d,%d): ecc(%d) = %d, live %d", dims.m, dims.n, v, got, liveEcc)
			}
		}
		if lo, hi := loaded.EccentricityRange(); hi != loaded.Diameter || lo > hi {
			t.Errorf("ecc range [%d,%d] vs diameter %d", lo, hi, loaded.Diameter)
		}
		// Path table: byte-for-byte the live construction, and
		// independently certified as disjoint shortest-bounded paths.
		for v := 1; v < hb.Order(); v++ {
			got, err := loaded.DisjointPaths(v)
			if err != nil {
				t.Fatalf("HB(%d,%d): paths(%d): %v", dims.m, dims.n, v, err)
			}
			want, err := hb.DisjointPaths(0, v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("HB(%d,%d): paths(%d) diverge from live compute", dims.m, dims.n, v)
			}
			if err := graph.VerifyDisjointPaths(hb, 0, v, got); err != nil {
				t.Fatalf("HB(%d,%d): paths(%d) fail verification: %v", dims.m, dims.n, v, err)
			}
		}
		if loaded.MeanDistance() <= 0 || loaded.MeanDistance() > float64(loaded.Diameter) {
			t.Errorf("mean distance %v outside (0,%d]", loaded.MeanDistance(), loaded.Diameter)
		}
		fr := loaded.Fractions()
		sum := 0.0
		for _, f := range fr {
			sum += f
		}
		if fr[0] != 0 || sum < 0.999 || sum > 1.001 {
			t.Errorf("fractions %v sum to %v", fr, sum)
		}
	}
}

func TestLoadMapsOnUnix(t *testing.T) {
	hb := core.MustNew(1, 3)
	built, err := snapshot.Build(hb, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.hbsnap")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// On the platforms CI runs, the mmap path must actually engage —
	// otherwise the fallback is silently load-bearing.
	if !loaded.Mapped() {
		t.Log("snapshot loaded via plain read (mmap unavailable on this platform)")
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if loaded.Mapped() {
		t.Error("still mapped after Close")
	}
}

// TestRejections covers every load gate: truncation at several
// boundaries, a corrupted magic, an unknown version, and a payload flip
// the checksum must catch.
func TestRejections(t *testing.T) {
	hb := core.MustNew(1, 3)
	built, err := snapshot.Build(hb, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := built.Encode()
	if _, err := snapshot.Decode(good); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := snapshot.Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("truncated header", func(b []byte) []byte { return b[:20] })
	corrupt("truncated body", func(b []byte) []byte { return b[:len(b)-9] })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0xAA) })
	corrupt("bad magic", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b, 0xDEADBEEF)
		return b
	})
	corrupt("wrong version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:], snapshot.Version+1)
		return b
	})
	corrupt("payload flip", func(b []byte) []byte {
		b[len(b)/2] ^= 0x01
		return b
	})
	corrupt("checksum flip", func(b []byte) []byte {
		b[len(b)-1] ^= 0x01
		return b
	})
	corrupt("section sizes wrap", func([]byte) []byte { return wrappingSnapshot() })

	// The same gates must hold through the file loader.
	bad := filepath.Join(t.TempDir(), "bad.hbsnap")
	flip := append([]byte(nil), good...)
	flip[headerProbe] ^= 0x01
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Load(bad); err == nil {
		t.Error("corrupt file loaded")
	}
	if _, err := snapshot.Load(filepath.Join(t.TempDir(), "absent.hbsnap")); err == nil {
		t.Error("absent file loaded")
	}
}

// headerProbe is a byte inside the histogram section — flipping it
// must trip the checksum, not a bounds check.
const headerProbe = 60

func TestBuildRefusesHugeInstances(t *testing.T) {
	hb := core.MustNew(3, 8) // 16384 nodes, over MaxOrder
	if _, err := snapshot.Build(hb, 0); err == nil {
		t.Fatal("built a snapshot over MaxOrder")
	}
}

func TestDisjointPathsBounds(t *testing.T) {
	hb := core.MustNew(1, 3)
	s, err := snapshot.Build(hb, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, -1, s.Order} {
		if _, err := s.DisjointPaths(v); err == nil {
			t.Errorf("paths(%d) accepted", v)
		}
	}
}

// withCRC rewrites the trailing checksum of b to match its content, so
// a mutated file reaches the bounds checks behind the CRC gate.
func withCRC(b []byte) []byte {
	if len(b) >= 8 {
		sum := crc64.Checksum(b[:len(b)-8], crc64.MakeTable(crc64.ECMA))
		binary.LittleEndian.PutUint64(b[len(b)-8:], sum)
	}
	return b
}

// wrappingSnapshot is a 64-byte file with a valid checksum whose order
// (2^61) and path-blob size (2^62+4) make the section sizes sum to
// exactly 64 in wrapping int arithmetic.
func wrappingSnapshot() []byte {
	le := binary.LittleEndian
	b := make([]byte, 64)
	le.PutUint32(b[0:], snapshot.Magic)
	le.PutUint32(b[4:], snapshot.Version)
	le.PutUint32(b[8:], 1)
	le.PutUint32(b[12:], 3)
	le.PutUint64(b[16:], 1<<61)
	le.PutUint64(b[32:], 1<<62+4)
	return withCRC(b)
}

// tinySnapshot is a valid 3-node file: one path to node 1, one to
// node 2.
func tinySnapshot() []byte {
	le := binary.LittleEndian
	b := make([]byte, 48)
	le.PutUint32(b[0:], snapshot.Magic)
	le.PutUint32(b[4:], snapshot.Version)
	le.PutUint64(b[16:], 3)  // order
	le.PutUint32(b[24:], 2)  // diameter
	le.PutUint32(b[28:], 3)  // histLen
	le.PutUint64(b[32:], 28) // pathBytes
	for _, h := range []uint64{3, 4, 2} {
		b = le.AppendUint64(b, h)
	}
	for _, e := range []uint16{2, 1, 2} {
		b = le.AppendUint16(b, e)
	}
	for _, at := range []uint32{0, 0, 12, 28} {
		b = le.AppendUint32(b, at)
	}
	for _, w := range []uint16{1, 2} { // node 1: one path 0,1
		b = le.AppendUint16(b, w)
	}
	b = le.AppendUint32(le.AppendUint32(b, 0), 1)
	for _, w := range []uint16{1, 3} { // node 2: one path 0,1,2
		b = le.AppendUint16(b, w)
	}
	b = le.AppendUint32(le.AppendUint32(le.AppendUint32(b, 0), 1), 2)
	return withCRC(append(b, make([]byte, 8)...))
}

// FuzzSnapshotDecode mutates snapshot files, re-signs them, and
// requires Decode to refuse or to return a snapshot that answers every
// in-range query without panicking.
func FuzzSnapshotDecode(f *testing.F) {
	// Seeds stay small: the fuzzer minimises every new input, and
	// minimising a real snapshot (kilobytes) eats the time budget.
	f.Add(tinySnapshot())
	f.Add(wrappingSnapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapshot.Decode(withCRC(data))
		if err != nil {
			return
		}
		for v := 0; v < s.Order; v++ {
			s.Eccentricity(v)
			if v > 0 {
				s.DisjointPaths(v)
			}
		}
		s.EccentricityRange()
		s.MeanDistance()
		s.Fractions()
	})
}
