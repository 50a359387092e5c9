// Package fabric turns N dae-serve replicas into one horizontally
// scalable simulation service. It provides the pieces cmd/dae-router
// assembles:
//
//   - Ring: a consistent-hash ring with virtual nodes that assigns every
//     Request hash a stable owning replica, so identical requests always
//     land on the same Engine (whose in-flight dedup then collapses
//     them) and membership changes move only the departing/arriving
//     replica's keys.
//   - Queue: a bounded priority admission queue — interactive runs are
//     admitted ahead of batch sweeps, overflow is refused immediately
//     (429 + Retry-After at the HTTP layer) and a draining router sheds
//     its waiters instead of stranding them.
//   - Router: the HTTP front end wiring these together. It collapses
//     concurrent identical forwards with the runner's single-flight
//     (runner.Flight), so a dead replica's in-flight work is recomputed
//     exactly once on its successor no matter how many clients were
//     waiting, and it reads the shared content-addressed result store
//     (the replicas' common cache directory) with runner.LoadEntry, so
//     it serves any cached hash itself — even when every replica is
//     down.
//
// Reports served through the fabric are byte-identical to `dae-sim
// -json`: the router relays replica response bytes verbatim on the run
// path and keeps reports as raw JSON when reassembling sweeps.
package fabric

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// vnodes is the virtual-node count per member. 64 keeps the ring's load
// spread within a few percent of uniform for small clusters while
// membership changes stay cheap (a few hundred points re-sorted).
const vnodes = 64

// Ring is a consistent-hash ring with virtual nodes. Keys (Request
// content hashes) map to the member owning the first ring point at or
// after the key's own hash. Adding a member moves only the keys the new
// member now owns; removing one moves only the keys it owned — every
// other key keeps its owner, which is what keeps the fabric's caches and
// in-flight dedup warm across membership changes (asserted by property
// tests). The zero Ring is not usable; construct with NewRing. Safe for
// concurrent use.
type Ring struct {
	mu      sync.RWMutex
	points  []ringPoint // sorted by (hash, member)
	members map[string]bool
}

// ringPoint is one virtual node: a position on the 64-bit circle and the
// member it belongs to.
type ringPoint struct {
	pos    uint64
	member string
}

// NewRing builds an empty Ring.
func NewRing() *Ring {
	return &Ring{members: make(map[string]bool)}
}

// hashKey positions a key (or virtual node label) on the circle.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{
			pos:    hashKey(fmt.Sprintf("%s#%d", member, i)),
			member: member,
		})
	}
	r.sortLocked()
}

// sortLocked restores point order. Ties on position (astronomically
// unlikely with 64-bit FNV, but determinism must not hinge on luck) are
// broken by member name so every process builds the identical ring.
func (r *Ring) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].member < r.points[j].member
	})
}

// Successors returns up to n distinct members in ring order starting at
// key's owner. This is the fabric's failover chain: a request whose
// owner is dead retries down this list, and because the list is a pure
// function of (ring membership, key), every router instance computes the
// same chain.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	pos := hashKey(key)
	// First point at or after pos, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
