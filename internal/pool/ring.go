package pool

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over member IDs. The pool uses it to
// route anonymous traffic over its tenants; the cluster layer promotes
// the same ring to node-level tenant ownership (each federation node
// owns the tenants that hash to it). The same routing key always lands
// on the same member, and adding or removing one member only remaps
// the keys adjacent to its virtual nodes instead of reshuffling
// everything. Rings are immutable once built — membership changes
// rebuild (member counts are small; the rebuild is microseconds, and
// immutability means Route takes no lock).
type Ring struct {
	points  []ringPoint // sorted by hash, ascending
	members []string    // distinct member IDs, sorted
}

type ringPoint struct {
	hash uint32
	id   string
}

// hashKey is FNV-1a, the same dependency-free hash the shard selector
// uses.
func hashKey(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

// BuildRing places replicas virtual nodes per member ID. An empty ID
// list yields an empty ring (Route returns ""). replicas <= 0 selects
// the default (64).
func BuildRing(ids []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultHashReplicas
	}
	r := &Ring{points: make([]ringPoint, 0, len(ids)*replicas)}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		r.members = append(r.members, id)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(id + "#" + strconv.Itoa(i)),
				id:   id,
			})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on ID so the ring order is deterministic even on
		// (rare) 32-bit hash collisions.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Route returns the member owning key: the first virtual node at or
// clockwise of the key's hash. Empty ring routes to "".
func (r *Ring) Route(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].id
}

// RouteN returns up to n distinct members in ring order starting at
// the key's owner: the owner first, then its successors clockwise.
// The cluster layer uses the second entry as the hedge target for
// idempotent forwards. Fewer than n members yields a shorter slice.
func (r *Ring) RouteN(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		id := r.points[(start+i)%len(r.points)].id
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// search returns the index of the first virtual node at or clockwise
// of the key's hash (callers must check for an empty ring).
func (r *Ring) search(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return i
}

// Len returns the distinct member count.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// remapProbeKeys is the fixed probe-key count RemapCount samples: big
// enough that a membership change's remapped fraction is visible,
// small enough that a rebuild stays microseconds.
const remapProbeKeys = 64

// RemapCount reports how many of a fixed set of probe keys changed
// owner between two rings — the observable "minimal remap" guarantee.
// Either ring may be nil (every routable probe key then counts as
// remapped).
func RemapCount(old, new_ *Ring) int {
	changed := 0
	for i := 0; i < remapProbeKeys; i++ {
		key := "remap-probe-" + strconv.Itoa(i)
		if old.Route(key) != new_.Route(key) {
			changed++
		}
	}
	return changed
}
