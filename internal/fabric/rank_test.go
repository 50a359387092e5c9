package fabric

import (
	"fmt"
	"math/rand"
	"slices"
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

// owner returns the member owning key, or "" with no members.
func owner(members []string, key string) string {
	if ranked := rank(key, members); len(ranked) > 0 {
		return ranked[0]
	}
	return ""
}

func owners(members []string, keys []string) map[string]string {
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = owner(members, k)
	}
	return m
}

// TestRingRemovalMovesOnlyDepartedKeys is the rendezvous-hashing
// property the fabric's warm caches depend on: across many random
// membership removals, a key changes owner if and only if its owner
// departed — and its new owner is the next member of its chain, so
// routers agree on where the key went.
func TestRingRemovalMovesOnlyDepartedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := ringKeys(4096)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6) // 2..7 replicas
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("http://replica-%d-%d:81", trial, i)
		}
		before := owners(members, keys)
		// Record each key's 2-member chain before the change: if its owner
		// departs, the key must land exactly on the chain's second entry.
		chains := make(map[string][]string, len(keys))
		for _, k := range keys {
			chains[k] = rank(k, members)[:2]
		}

		departing := members[rng.Intn(n)]
		var smaller []string
		for _, m := range members {
			if m != departing {
				smaller = append(smaller, m)
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
					t.Fatalf("trial %d: departed key %s went to %s, want chain successor %s",
						trial, k[:12], after[k], want)
				}
			}
		}
		if n > 1 && moved == 0 {
			t.Fatalf("trial %d: departing replica owned no keys (degenerate ranking)", trial)
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
		var members []string
		for i := 0; i < n; i++ {
			members = append(members, fmt.Sprintf("http://replica-%d-%d:81", trial, i))
		}
		before := owners(members, keys)
		arriving := fmt.Sprintf("http://replica-%d-new:81", trial)
		after := owners(append(members, arriving), keys)

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
		// population should be within 3x of fair.
		fair := len(keys) / (n + 1)
		if moved > 3*fair {
			t.Errorf("trial %d: new replica took %d keys, fair share %d (ranking badly unbalanced)",
				trial, moved, fair)
		}
	}
}

// TestRingDeterministicAcrossInstances: the same membership listed in
// different orders gives the same owner and chain for every key.
// Routers must not need to coordinate.
func TestRingDeterministicAcrossInstances(t *testing.T) {
	members := []string{"http://a:81", "http://b:81", "http://c:81", "http://d:81"}
	reversed := slices.Clone(members)
	slices.Reverse(reversed)
	for _, k := range ringKeys(512) {
		sa := rank(k, members)
		sb := rank(k, reversed)
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

// TestRingEdgeCases: no members, a single member.
func TestRingEdgeCases(t *testing.T) {
	if got := owner(nil, "k"); got != "" {
		t.Errorf("empty owner %q", got)
	}
	if got := rank("k", nil); len(got) != 0 {
		t.Errorf("empty chain %v", got)
	}
	only := []string{"only"}
	if got := owner(only, "k"); got != "only" {
		t.Errorf("single-member owner %q", got)
	}
	if got := rank("k", only); len(got) != 1 {
		t.Errorf("chain %v, want exactly the one member", got)
	}
}

// TestRankBalancesSiblingURLs: replicas on one host usually differ only
// in a port's last digit, and each must still own close to a fair share
// of a uniform key population.
func TestRankBalancesSiblingURLs(t *testing.T) {
	keys := ringKeys(30000)
	for _, n := range []int{2, 3, 5} {
		var members []string
		for i := 1; i <= n; i++ {
			members = append(members, fmt.Sprintf("http://127.0.0.1:4000%d", i))
		}
		share := owners(members, keys)
		count := make(map[string]int, n)
		for _, m := range share {
			count[m]++
		}
		fair := len(keys) / n
		for _, m := range members {
			if c := count[m]; c < fair*85/100 || c > fair*115/100 {
				t.Errorf("%d replicas: %s owns %d keys, fair share %d", n, m, c, fair)
			}
		}
	}
}
