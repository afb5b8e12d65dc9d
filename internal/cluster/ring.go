package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring assigning keys (model names) to shards.
// Each shard contributes `replicas` virtual nodes so assignment stays
// balanced for small shard counts, and a key's placement only moves when
// its arc's owner changes — adding or removing one shard relocates
// ~1/N of the models, not all of them.
type Ring struct {
	shards []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// DefaultReplicas is the virtual-node count per shard; 64 keeps the
// max/min load ratio within a few percent for single-digit shard counts.
const DefaultReplicas = 64

// NewRing builds a ring over the given shard identifiers (base URLs).
// Order does not matter: placement depends only on the set of shards.
func NewRing(shards []string, replicas int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: a ring needs at least one shard")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := map[string]bool{}
	r := &Ring{shards: append([]string(nil), shards...)}
	sort.Strings(r.shards)
	for i, s := range r.shards {
		if s == "" {
			return nil, fmt.Errorf("cluster: empty shard identifier")
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard %s", s)
		}
		seen[s] = true
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(s + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV's avalanche is weak for short strings differing in the last
	// byte (exactly what vnode labels are); a splitmix64 finalizer
	// disperses them so the ring stays balanced at small shard counts.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shards lists the ring's members, sorted.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Lookup returns the primary shard owning key and the secondary — the
// next distinct shard clockwise — used as the failover target and the
// second shard a routed load goes to. With a single shard the secondary
// equals the primary.
func (r *Ring) Lookup(key string) (primary, secondary string) {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	p := r.points[i].shard
	primary = r.shards[p]
	secondary = primary
	for j := 1; j <= len(r.points); j++ {
		s := r.points[(i+j)%len(r.points)].shard
		if s != p {
			secondary = r.shards[s]
			break
		}
	}
	return primary, secondary
}
