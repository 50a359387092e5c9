package fabric

import (
	"fmt"
	"os"

	"repro/internal/runner"
	"repro/internal/stats"
)

// Store is the router's read-only view of the fabric's shared
// content-addressed result store: the cache directory every replica
// mounts (dae-serve -cache) behind its Engine's two-level cache. Entries
// are one JSON file per Request hash, written atomically by whichever
// replica computed the result — so the store needs no coordinator, any
// replica can serve any hash, and the router itself can answer cache
// hits (and GET-by-hash) without touching a replica at all, replicas
// dead or alive.
type Store struct {
	dir string
}

// OpenStore opens the shared store rooted at dir. The directory is
// created if missing so the router can boot before the first replica
// does; an unusable path is an immediate error rather than a silent
// all-miss store.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("fabric: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: store dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Get returns the stored report for a Request content hash. Malformed
// hashes (anything but lowercase hex — defense against path traversal
// on an HTTP-supplied value) and unreadable, partial or mismatched
// entries are misses.
func (s *Store) Get(hash string) (stats.Report, bool) {
	if !validHash(hash) {
		return stats.Report{}, false
	}
	return runner.LoadEntry(s.dir, hash)
}

// validHash reports whether hash looks like a runner content hash
// (non-empty lowercase hex).
func validHash(hash string) bool {
	if hash == "" {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
