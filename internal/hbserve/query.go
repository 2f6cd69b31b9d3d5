package hbserve

import (
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// query is one request's parameters, read once from the raw query
// string. A raw query holding no '%', '+' or ';' needs no unescaping and
// drops no pairs, so get scans it in place and returns substrings of it
// without allocating. Any other raw query goes through url.ParseQuery
// once, so get agrees with url.ParseQuery(raw).Get(name) on every input
// (FuzzQueryGet holds it to that).
type query struct {
	raw    string
	values url.Values // non-nil when raw needed the slow path
}

func parseQuery(raw string) query {
	if strings.ContainsAny(raw, "%+;") {
		v, _ := url.ParseQuery(raw) // like URL.Query: drop malformed pairs
		return query{values: v}
	}
	return query{raw: raw}
}

// get returns the first value of name, or "" when it is absent.
func (q query) get(name string) string {
	if q.values != nil {
		return q.values.Get(name)
	}
	for rest := q.raw; rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" {
			continue
		}
		if key, val, _ := strings.Cut(pair, "="); key == name {
			return val
		}
	}
	return ""
}

func intParam(q query, name string, def int) (int, error) {
	raw := q.get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

func nodeParam(q query, top core.Topology, name string) (core.Node, error) {
	raw := q.get(name)
	if raw == "" {
		return 0, badRequest("missing node parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("node parameter %s=%q is not an integer", name, raw)
	}
	if !top.ValidNode(v) {
		return 0, badRequest("node %s=%d out of range [0,%d)", name, v, top.Order())
	}
	return v, nil
}

// boolParam reads a flag parameter (accepted forms: 1, true).
func boolParam(q query, name string) bool {
	raw := q.get(name)
	return raw == "1" || raw == "true"
}

// appendFaultsParam parses faults=3,17,40 into buf as a sorted,
// deduplicated list, so the echoed "faults" field is canonical ([]
// rather than null, 3,3,1 rendered as [1,3]) regardless of how the
// caller spelled the query. The result is never nil.
func appendFaultsParam(q query, top core.Topology, buf []int) ([]int, error) {
	out := buf[:0]
	if out == nil {
		out = []int{}
	}
	raw := q.get("faults")
	if raw == "" {
		return out, nil
	}
	for rest, more := raw, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ",")
		f, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, badRequest("fault id %q is not an integer", p)
		}
		if !top.ValidNode(f) {
			return nil, badRequest("fault %d out of range [0,%d)", f, top.Order())
		}
		out = append(out, f)
	}
	sort.Ints(out)
	j := 0
	for i, f := range out {
		if i == 0 || f != out[j-1] {
			out[j] = f
			j++
		}
	}
	return out[:j], nil
}
