package hbserve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// Serving-hot-path benchmarks (EXPERIMENTS.md E-SV): the cache in
// isolation and the full handler stack. Future PRs regress against
// these before touching the serving path.

func BenchmarkRouteCache(b *testing.B) {
	hb := core.MustNew(2, 4)
	compute := func(u, v int) func() ([]byte, error) {
		return func() ([]byte, error) {
			return appendRouteBody(nil, hb, Dims{M: 2, N: 4}, hb.Route(u, v), false), nil
		}
	}

	b.Run("hit", func(b *testing.B) {
		c := NewRouteCache(1024, 0)
		key := cacheKey("route", Dims{M: 2, N: 4}, 0, 200, false)
		c.GetOrCompute(key, compute(0, 200))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.GetOrCompute(key, compute(0, 200))
		}
	})

	b.Run("miss", func(b *testing.B) {
		c := NewRouteCache(1024, 0)
		order := hb.Order()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct key per iteration: every lookup computes.
			u, v := i%order, (i*7+1)%order
			if u == v {
				v = (v + 1) % order
			}
			c.GetOrCompute(fmt.Sprintf("bench|%d|%d|%d", i, u, v), compute(u, v))
		}
	})

	b.Run("concurrent-singleflight", func(b *testing.B) {
		// All goroutines hammer one hot key: first computes, rest either
		// coalesce onto the flight or hit.
		c := NewRouteCache(1024, 0)
		key := cacheKey("route", Dims{M: 2, N: 4}, 3, 100, false)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.GetOrCompute(key, compute(3, 100))
			}
		})
	})
}

// BenchmarkHandler measures one request through the daemon's root
// handler with a reusable writer, per served dims: /route on HB(3,8)
// and HB(10,10), /faultroute on an unchanged fault set, a /paths cache
// hit, and an uncached (CacheSize: -1) case-3 /paths on both dims —
// the cold answer a cache miss pays, a Menger extraction on a window
// around the analytic candidates. /route is uncached, so every
// iteration runs the kernel and the encoder.
func BenchmarkHandler(b *testing.B) {
	cached := NewServer(Config{}).Handler()
	uncached := NewServer(Config{CacheSize: -1}).Handler()
	for _, bc := range []struct {
		name, target string
		h            http.Handler
	}{
		{"route/hb3x8", "/route?m=3&n=8&u=5&v=16000", cached},
		{"route/hb10x10", "/route?m=10&n=10&u=12345&v=10485000", cached},
		{"faultroute/hb3x8", "/faultroute?m=3&n=8&u=5&v=16000&faults=6,700,9000", cached},
		{"paths-hit/hb3x8", "/paths?m=3&n=8&u=5&v=16000", cached},
		{"paths-cold/hb3x8", "/paths?m=3&n=8&u=5&v=16000", uncached},
		{"paths-cold/hb10x10", "/paths?m=10&n=10&u=12345&v=10485000", uncached},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := newStubWriter()
			r := httptest.NewRequest(http.MethodGet, bc.target, nil)
			serveStub(b, bc.h, w, r) // warms the pool, factor arenas, router and cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveStub(b, bc.h, w, r)
			}
		})
	}
}

// BenchmarkRouterForward measures the router's own per-request
// overhead — shard lookup, pooled body/copy buffers, relay — in front
// of a live in-process replica. The allocs/op number is the satellite
// this PR pins: the pooled buffers keep the router path from allocating
// a fresh body and copy chunk per forward.
func BenchmarkRouterForward(b *testing.B) {
	replica := httptest.NewServer(NewServer(Config{}).Handler())
	defer replica.Close()
	rt, err := NewRouter(ClusterConfig{Replicas: []string{replica.URL}})
	if err != nil {
		b.Fatal(err)
	}
	handler := rt.Handler()

	b.Run("single", func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, "/route?m=2&n=4&u=0&v=200", nil)
		handler.ServeHTTP(httptest.NewRecorder(), req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d", w.Code)
			}
		}
	})

	b.Run("batch64", func(b *testing.B) {
		src := make([]int, 64)
		dst := make([]int, 64)
		for i := range src {
			src[i], dst[i] = i%96, (i*7+5)%96
		}
		body, err := EncodeBatchBinRequest("route", 2, 3, nil, src, dst)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
			req.Header.Set("Content-Type", ctBatchBin)
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
}

// BenchmarkEstimate measures a repeat /estimate through the root
// handler (EXPERIMENTS.md E-AB). The warm-up request searches B_n;
// every iteration after it convolves the cached factor histogram and
// renders the body.
func BenchmarkEstimate(b *testing.B) {
	h := NewServer(Config{}).Handler()
	for _, dims := range []string{"m=10&n=10", "m=4&n=16", "m=0&n=19"} {
		b.Run(dims, func(b *testing.B) {
			w := newStubWriter()
			r := httptest.NewRequest(http.MethodGet, "/estimate?"+dims, nil)
			serveStub(b, h, w, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveStub(b, h, w, r)
			}
		})
	}
}
