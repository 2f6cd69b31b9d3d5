package hbserve

import (
	"sort"
	"strconv"
)

// hashRing consistent-hash-shards the (dims,u,v) keyspace across
// replica indices. Each replica owns vnodes points on a 64-bit ring; a
// key belongs to the first point clockwise from its hash. The point set
// is immutable after construction — membership changes (ejections,
// re-admissions) are expressed at lookup time by the alive predicate,
// so a dead replica's keys spill to the next live point clockwise while
// every key owned by a surviving replica keeps its owner. That
// stability under churn is the property the cluster tier's affinity
// test pins.
type hashRing struct {
	points []ringPoint
	n      int // replica count
}

type ringPoint struct {
	hash    uint64
	replica int
}

// defaultVNodes balances the keyspace to within a few percent across a
// handful of replicas without making lookups or construction heavy.
const defaultVNodes = 64

// ringHash places a point or a key on the ring: FNV-1a, then murmur3's
// 64-bit finalizer. FNV-1a alone leaves names that differ only in
// their last bytes (loopback replica URLs that differ only by port)
// clustered on the ring, so one replica could own a few percent of
// the keyspace; the finalizer spreads every input bit over the whole
// word.
func ringHash(b []byte) uint64 {
	h := fnv1aBytes(b)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// newHashRing builds the ring over n replicas identified by the given
// stable names (the cluster tier passes base URLs); vnodes <= 0 selects
// defaultVNodes.
func newHashRing(names []string, vnodes int) *hashRing {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &hashRing{points: make([]ringPoint, 0, len(names)*vnodes), n: len(names)}
	for i, name := range names {
		for j := 0; j < vnodes; j++ {
			h := ringHash([]byte(name + "#" + strconv.Itoa(j)))
			r.points = append(r.points, ringPoint{hash: h, replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Lookup returns the replica owning key among those alive accepts
// (nil = all), or -1 when none is. Walking the ring point by point —
// rather than filtering the point set up front — is what preserves
// surviving replicas' assignments under membership change.
func (r *hashRing) Lookup(key uint64, alive func(int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(i+k)%len(r.points)]
		if alive == nil || alive(p.replica) {
			return p.replica
		}
	}
	return -1
}

// LookupN returns the key's owner set: the first n distinct replicas
// accepted by alive (nil = all) on the clockwise walk from the key's
// ring position, primary first. Because the walk order is fixed by the
// immutable point set, ejecting one member of an owner set promotes the
// next member in place — a key replicated at factor R keeps an alive
// owner inside its original owner set as long as fewer than R members
// are down, with no re-walk past the set. The result is appended to
// buf (pass buf[:0] to reuse an allocation across calls).
func (r *hashRing) LookupN(key uint64, n int, alive func(int) bool, buf []int) []int {
	owners := buf[:0]
	if len(r.points) == 0 || n <= 0 {
		return owners
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for k := 0; k < len(r.points) && len(owners) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if alive != nil && !alive(p.replica) {
			continue
		}
		seen := false
		for _, o := range owners {
			if o == p.replica {
				seen = true
				break
			}
		}
		if !seen {
			owners = append(owners, p.replica)
		}
	}
	return owners
}

// shardKey hashes one (dims,u,v) query identity onto the ring.
func shardKey(d Dims, u, v int) uint64 {
	var buf [44]byte
	return shardKeyAppend(d, u, v, buf[:0])
}

// shardKeyAppend is shardKey over a caller-provided scratch buffer, so
// the per-pair partition loop in the scatter path hashes without
// allocating. Batch pairs and single queries for the same (dims,u,v)
// hash the same bytes, so they share an owner.
func shardKeyAppend(d Dims, u, v int, buf []byte) uint64 {
	buf = strconv.AppendInt(buf, int64(d.M), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(d.N), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(u), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(v), 10)
	return ringHash(buf)
}
