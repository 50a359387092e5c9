package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/stats"
)

// cache is the two-level result store: a map serving repeated points
// within a process, and an optional directory of one JSON file per job
// hash serving re-runs across processes (which is also what makes long
// sweeps resumable — every completed point is durable the moment it
// finishes, so a crashed or cancelled sweep re-runs only its remainder).
type cache struct {
	mu  sync.Mutex
	mem map[string]stats.Report
	dir string
}

// entry is the on-disk format. Hash is stored redundantly so a file
// corrupted by a partial write (or hand-edited) is detected and
// recomputed rather than trusted.
type entry struct {
	Hash string
	// Key records the label of the job that first computed the entry,
	// for humans inspecting the cache directory.
	Key    string
	Report stats.Report
}

func newCache(dir string) (*cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: cache dir: %w", err)
		}
		// Sweep temp files orphaned by a crash between CreateTemp and
		// Rename in put, so interrupted sweeps don't accumulate junk.
		if names, err := os.ReadDir(dir); err == nil {
			for _, de := range names {
				if !de.IsDir() && strings.Contains(de.Name(), ".tmp") {
					os.Remove(filepath.Join(dir, de.Name()))
				}
			}
		}
	}
	return &cache{mem: make(map[string]stats.Report), dir: dir}, nil
}

func (c *cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// get returns the cached report for a hash, consulting memory first and
// the disk tier second. Unreadable or mismatched disk entries are
// treated as misses.
func (c *cache) get(hash string) (stats.Report, bool) {
	c.mu.Lock()
	rep, ok := c.mem[hash]
	c.mu.Unlock()
	if ok {
		return rep, true
	}
	rep, ok = LoadEntry(c.dir, hash)
	if !ok {
		return stats.Report{}, false
	}
	c.mu.Lock()
	c.mem[hash] = rep
	c.mu.Unlock()
	return rep, true
}

// LoadEntry reads one on-disk cache entry by content hash straight from
// a cache directory, without a Runner; it is the one disk reader. An
// empty dir, a hash that is not non-empty lowercase hex (hashes arrive
// from HTTP paths, so this keeps them inside dir) and an unreadable or
// mismatched entry are misses. It is also the read-only path behind the
// fabric's shared result store: any process that can see the directory
// can serve any hash a replica has computed.
func LoadEntry(dir, hash string) (stats.Report, bool) {
	if dir == "" || !validHash(hash) {
		return stats.Report{}, false
	}
	raw, err := os.ReadFile(filepath.Join(dir, hash+".json"))
	if err != nil {
		return stats.Report{}, false
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil || e.Hash != hash {
		return stats.Report{}, false
	}
	return e.Report, true
}

// validHash reports whether hash looks like a job content hash
// (non-empty lowercase hex).
func validHash(hash string) bool {
	for i := 0; i < len(hash); i++ {
		if c := hash[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return hash != ""
}

// put stores a computed report in both tiers. The disk write goes
// through a rename so a crash mid-write never leaves a half-entry that
// get would have to guess about.
func (c *cache) put(hash, key string, rep stats.Report) error {
	c.mu.Lock()
	c.mem[hash] = rep
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	raw, err := json.MarshalIndent(entry{Hash: hash, Key: key, Report: rep}, "", " ")
	if err != nil {
		return fmt.Errorf("runner: encode cache entry %s: %w", hash, err)
	}
	tmp, err := os.CreateTemp(c.dir, hash+".tmp*")
	if err != nil {
		return fmt.Errorf("runner: write cache entry: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: write cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: write cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: write cache entry: %w", err)
	}
	return nil
}
