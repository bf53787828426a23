package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// RoutePolicy selects the fleet's front-door routing discipline.
type RoutePolicy int

const (
	// RouteLeastLoaded sends each request to the replica with the
	// smallest instantaneous load (queued requests plus outstanding
	// images) — best for uniform traffic, maximises batch formation.
	RouteLeastLoaded RoutePolicy = iota
	// RouteHash routes by consistent hash of the request key, so one
	// key's traffic sticks to one replica (cache affinity) and a
	// membership change remaps only the keys that lived on the replica
	// that left or the arc the replica that joined took over.
	RouteHash
)

func (p RoutePolicy) String() string {
	switch p {
	case RouteLeastLoaded:
		return "least-loaded"
	case RouteHash:
		return "hash"
	}
	return fmt.Sprintf("RoutePolicy(%d)", int(p))
}

// RoutePolicyByName parses a -route flag value.
func RoutePolicyByName(s string) (RoutePolicy, error) {
	switch s {
	case "least-loaded", "leastloaded", "ll":
		return RouteLeastLoaded, nil
	case "hash", "consistent-hash", "ch":
		return RouteHash, nil
	}
	return 0, fmt.Errorf("serve: unknown route policy %q (want least-loaded or hash)", s)
}

// vnodes is the virtual-node count per replica: enough that the ring's
// arcs even out (load spread within a few percent) while a rebuild
// stays trivially cheap at fleet sizes.
const vnodes = 64

// hashRing is a consistent-hash ring over replica ids. Placement is a
// pure function of (id, vnode), so rebuilding from any membership set
// reproduces the surviving replicas' points exactly — the property the
// stability test pins down.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   int
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	// FNV-1a alone clusters short sequential keys ("user-1", "user-2")
	// into adjacent ring positions; a 64-bit avalanche finalizer
	// (murmur3 fmix64) restores uniform arc spread.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rebuild replaces the ring's membership.
func (r *hashRing) rebuild(ids []int) {
	r.points = r.points[:0]
	for _, id := range ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("replica-%d/vnode-%d", id, v)),
				id:   id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
}

// pick returns the replica owning the key's arc, or false on an empty
// ring.
func (r *hashRing) pick(key string) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last hash
	}
	return r.points[i].id, true
}
