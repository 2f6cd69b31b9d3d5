package hbserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The served-paths differential: every instance is served by the
// implicit backend, so /paths and /batch op=paths must still carry the
// dense instance's answers wherever the two share a construction (cases
// 1 and 2 of Theorem 5, byte for byte), and a verified maximal
// certificate where they do not (case 3, a window Menger instead of a
// whole-graph one).

// pathsCase names the Theorem 5 case of a pair.
func pathsCase(hb *core.HyperButterfly, u, v int) int {
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	switch {
	case bu == bv:
		return 1
	case hu == hv:
		return 2
	}
	return 3
}

// casePairs draws up to perCase distinct-endpoint pairs of each case
// that hb has (HB(0,n) has only case 2).
func casePairs(hb *core.HyperButterfly, rng *rand.Rand, perCase int) [][2]int {
	var out [][2]int
	count := map[int]int{}
	for tries := 0; tries < 10000 && len(out) < 3*perCase; tries++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		if u == v {
			continue
		}
		// Steer towards cases 1 and 2, which uniform pairs rarely hit.
		hu, bu := hb.Decode(u)
		hv, bv := hb.Decode(v)
		switch tries % 3 {
		case 1:
			v = hb.Encode(hv, bu)
		case 2:
			v = hb.Encode(hu, bv)
		}
		if u == v {
			continue
		}
		if c := pathsCase(hb, u, v); count[c] < perCase {
			count[c]++
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// checkCase3Paths certifies a served case-3 answer against the dense
// adjacency: m+4 paths, internally disjoint, none below the BFS
// distance.
func checkCase3Paths(t *testing.T, hb *core.HyperButterfly, u, v int, paths [][]int) {
	t.Helper()
	if len(paths) != hb.M()+4 {
		t.Fatalf("%d paths, want %d", len(paths), hb.M()+4)
	}
	dense := hb.Dense()
	if err := graph.VerifyDisjointPaths(dense, u, v, paths); err != nil {
		t.Fatal(err)
	}
	dist := int(graph.BFS(dense, u, nil)[v])
	for i, p := range paths {
		if len(p)-1 < dist {
			t.Fatalf("path %d has length %d, below the BFS distance %d", i, len(p)-1, dist)
		}
	}
}

func TestServedPathsMatchDense(t *testing.T) {
	s, ts := newTestServer(t)
	h := s.Handler()
	rng := rand.New(rand.NewSource(13))
	for _, d := range []Dims{{M: 0, N: 3}, {M: 2, N: 3}, {M: 3, N: 8}, {M: 4, N: 4}} {
		hb := core.MustNew(d.M, d.N)
		pairs := casePairs(hb, rng, 6)
		t.Run(d.String(), func(t *testing.T) {
			for _, verify := range []bool{false, true} {
				for _, p := range pairs {
					u, v := p[0], p[1]
					target := fmt.Sprintf("/paths?m=%d&n=%d&u=%d&v=%d", d.M, d.N, u, v)
					if verify {
						target += "&verify=1"
					}
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
					if w.Code != http.StatusOK {
						t.Fatalf("%s: status %d: %s", target, w.Code, w.Body)
					}
					if pathsCase(hb, u, v) == 3 {
						var res pathsResponse
						if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
							t.Fatal(err)
						}
						if res.Verified != verify || res.Count != len(res.Paths) {
							t.Fatalf("%s: verified=%v count=%d for %d paths", target, res.Verified, res.Count, len(res.Paths))
						}
						checkCase3Paths(t, hb, u, v, res.Paths)
						continue
					}
					want, err := hb.DisjointPaths(u, v)
					if err != nil {
						t.Fatal(err)
					}
					if body := appendPathsBody(nil, d, u, v, want, verify); !bytes.Equal(w.Body.Bytes(), body) {
						t.Fatalf("%s:\n got %s\nwant %s", target, w.Body, body)
					}
				}
			}

			src := make([]int, len(pairs))
			dst := make([]int, len(pairs))
			for i, p := range pairs {
				src[i], dst[i] = p[0], p[1]
			}
			resp, body := postBatch(t, ts.URL, ctJSON, jsonBatchBody(t, "paths", d.M, d.N, nil, src, dst))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/batch status %d: %s", resp.StatusCode, body)
			}
			var r batchJSONResp
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				u, v := p[0], p[1]
				if r.Status[i] != core.BatchOK {
					t.Fatalf("/batch pair %d (%d,%d): status %d", i, u, v, r.Status[i])
				}
				var got [][]int
				for k := r.PairOff[i]; k < r.PairOff[i+1]; k++ {
					got = append(got, r.Nodes[r.PathOff[k]:r.PathOff[k+1]])
				}
				if pathsCase(hb, u, v) == 3 {
					checkCase3Paths(t, hb, u, v, got)
					continue
				}
				want, err := hb.DisjointPaths(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("/batch pair %d (%d,%d): %v, want %v", i, u, v, got, want)
				}
			}
		})
	}
}

// TestVerifyOracleByOrder pins the verify=1 dispatch: up to
// denseVerifyMaxOrder (HB(3,8)) the BFS oracle over the dense adjacency
// runs, above it (HB(10,10)) the label-arithmetic check does. A walk
// two hops longer than the shortest route tells them apart by the
// distance each reports.
func TestVerifyOracleByOrder(t *testing.T) {
	s, _ := newTestServer(t)
	for _, c := range []struct {
		d    Dims
		u, v int
		bfs  bool
	}{
		{Dims{M: 3, N: 8}, 5, 16000, true},
		{Dims{M: 10, N: 10}, 12345, 10485000, false},
	} {
		top, err := s.pool.Get(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if got := verifyOracle(top) != nil; got != c.bfs {
			t.Errorf("%v: BFS oracle %v, want %v", c.d, got, c.bfs)
		}
		route := top.Route(c.u, c.v)
		detour := append([]int{c.u, route[1]}, route...)
		err = s.verifyRoute(top, c.u, c.v, detour)
		if err == nil {
			t.Fatalf("%v: verify accepted a non-shortest walk", c.d)
		}
		if got := strings.Contains(err.Error(), "BFS distance"); got != c.bfs {
			t.Errorf("%v: verify error %q, want the BFS oracle %v", c.d, err, c.bfs)
		}
		if err := s.verifyRoute(top, c.u, c.v, route); err != nil {
			t.Errorf("%v: verify rejected the shortest route: %v", c.d, err)
		}
	}
}
