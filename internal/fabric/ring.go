package fabric

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is the default number of virtual nodes per member. Virtual
// nodes smooth the key distribution: with a handful of physical workers
// a single hash point each would routinely give one worker most of the
// circle.
const ringVnodes = 64

// Ring is a consistent-hash ring mapping job keys to member IDs. Adding
// or removing one member moves only the keys that member owned (plus
// 1/n of the circle on an add) — the property that keeps the
// coordinator's placement stable, and therefore its dispatch affinity
// useful, while workers join and die.
//
// Ring is not safe for concurrent use; the Coordinator guards it with
// its own mutex.
type Ring struct {
	vnodes int
	ids    map[string]bool
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<= 0 selects the default).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = ringVnodes
	}
	return &Ring{vnodes: vnodes, ids: map[string]bool{}}
}

// Add inserts a member (no-op if present).
func (r *Ring) Add(id string) {
	if r.ids[id] {
		return
	}
	r.ids[id] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(id + "#" + strconv.Itoa(i)), id: id})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].id < r.points[b].id // total order even on hash collision
	})
}

// Remove deletes a member (no-op if absent).
func (r *Ring) Remove(id string) {
	if !r.ids[id] {
		return
	}
	delete(r.ids, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.ids) }

// Owners returns up to n distinct members in preference order for key:
// the first point at or clockwise of the key's hash, then successive
// distinct members continuing clockwise. With n >= Len it is a total
// preference order over the membership, which the coordinator walks
// when earlier choices fail.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
