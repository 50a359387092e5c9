package fabric

import (
	"fmt"
	"math/rand"
	"testing"
)

// ringKeys generates a deterministic key population shaped like the real
// one: hex content hashes.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15+1)
	}
	return keys
}

// owner returns the member owning key, or "" on an empty ring.
func owner(r *Ring, key string) string {
	if succ := r.Successors(key, 1); len(succ) > 0 {
		return succ[0]
	}
	return ""
}

func owners(r *Ring, keys []string) map[string]string {
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = owner(r, k)
	}
	return m
}

// TestRingRemovalMovesOnlyDepartedKeys is the consistent-hashing
// property the fabric's warm caches depend on: across many random
// membership removals, a key changes owner if and only if its owner
// departed — and its new owner is the next member on its successor
// chain, so routers agree on where the key went. The ring is a pure
// function of its membership, so the smaller ring is built afresh.
func TestRingRemovalMovesOnlyDepartedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := ringKeys(4096)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6) // 2..7 replicas
		r := NewRing()
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("http://replica-%d-%d:81", trial, i)
			r.Add(members[i])
		}
		before := owners(r, keys)
		// Record each key's 2-member chain before the change: if its owner
		// departs, the key must land exactly on the chain's second entry.
		chains := make(map[string][]string, len(keys))
		for _, k := range keys {
			chains[k] = r.Successors(k, 2)
		}

		departing := members[rng.Intn(n)]
		smaller := NewRing()
		for _, m := range members {
			if m != departing {
				smaller.Add(m)
			}
		}
		after := owners(smaller, keys)

		moved := 0
		for _, k := range keys {
			switch {
			case before[k] != departing && after[k] != before[k]:
				t.Fatalf("trial %d: key %s moved %s -> %s although %s departed",
					trial, k[:12], before[k], after[k], departing)
			case before[k] == departing:
				moved++
				if want := chains[k][1]; after[k] != want {
					t.Fatalf("trial %d: departed key %s went to %s, want ring successor %s",
						trial, k[:12], after[k], want)
				}
			}
		}
		if n > 1 && moved == 0 {
			t.Fatalf("trial %d: departing replica owned no keys (degenerate ring)", trial)
		}
	}
}

// TestRingAdditionMovesKeysOnlyToArrival: the dual property — after an
// add, every moved key is owned by the new member.
func TestRingAdditionMovesKeysOnlyToArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := ringKeys(4096)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		r := NewRing()
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("http://replica-%d-%d:81", trial, i))
		}
		before := owners(r, keys)
		arriving := fmt.Sprintf("http://replica-%d-new:81", trial)
		r.Add(arriving)
		after := owners(r, keys)

		moved := 0
		for _, k := range keys {
			if after[k] != before[k] {
				moved++
				if after[k] != arriving {
					t.Fatalf("trial %d: key %s moved %s -> %s, but only %s arrived",
						trial, k[:12], before[k], after[k], arriving)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("trial %d: new replica took no keys", trial)
		}
		// Rough balance: the newcomer's share of a large uniform key
		// population should be within 3x of fair (vnodes smooth the ring,
		// they don't perfect it).
		fair := len(keys) / (n + 1)
		if moved > 3*fair {
			t.Errorf("trial %d: new replica took %d keys, fair share %d (ring badly unbalanced)",
				trial, moved, fair)
		}
	}
}

// TestRingDeterministicAcrossInstances: two rings built from the same
// membership — in different insertion orders — agree on every owner and
// successor chain. Routers must not need to coordinate.
func TestRingDeterministicAcrossInstances(t *testing.T) {
	members := []string{"http://a:81", "http://b:81", "http://c:81", "http://d:81"}
	a := NewRing()
	for _, m := range members {
		a.Add(m)
	}
	b := NewRing()
	for i := len(members) - 1; i >= 0; i-- {
		b.Add(members[i])
	}
	for _, k := range ringKeys(512) {
		sa := a.Successors(k, len(members))
		sb := b.Successors(k, len(members))
		if len(sa) != len(sb) {
			t.Fatalf("key %s: chain lengths differ", k[:12])
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("key %s: chains differ at %d: %v vs %v", k[:12], i, sa, sb)
			}
		}
	}
}

// TestRingEdgeCases: empty ring, single member, duplicate adds,
// successor bounds.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing()
	if got := owner(r, "k"); got != "" {
		t.Errorf("empty ring owner %q", got)
	}
	if got := r.Successors("k", 3); got != nil {
		t.Errorf("empty ring successors %v", got)
	}
	r.Add("only")
	r.Add("only") // duplicate: no-op
	if got := owner(r, "k"); got != "only" {
		t.Errorf("single-member owner %q", got)
	}
	if got := r.Successors("k", 5); len(got) != 1 {
		t.Errorf("successors %v, want exactly the one member", got)
	}
	if got := len(r.members); got != 1 {
		t.Errorf("%d members after duplicate add", got)
	}
}
