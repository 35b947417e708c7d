package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndpage/internal/sim"
)

// Store persists simulation results content-addressed by
// sim.Config.Key(): the key is a hash of the fully-normalized
// configuration, so a stored result is valid for exactly the runs that
// would reproduce it. Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the stored result for key, reporting whether one
	// exists. A miss is (nil, false, nil); errors are reserved for real
	// failures (I/O, corruption).
	Get(key string) (*sim.Result, bool, error)
	// Put stores res under key, overwriting any previous entry.
	Put(key string, res *sim.Result) error
}

// Simulator is the optional Store extension for stores that can compute
// a missing result themselves. Runner does not probe for it: exp.Runner
// adopts a Store's Simulate as its simulation function, which is how
// the perfbench harness observes and refuses the figure path's cold
// runs.
type Simulator interface {
	Simulate(cfg sim.Config) (*sim.Result, error)
}

// MemStore is an in-process Store: a map under a mutex. The zero value
// is NOT ready to use; call NewMemStore.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]*sim.Result
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string]*sim.Result)}
}

// Get implements Store.
func (s *MemStore) Get(key string) (*sim.Result, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, ok := s.m[key]
	return res, ok, nil
}

// Put implements Store.
func (s *MemStore) Put(key string, res *sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = res
	return nil
}

// DirStore is an on-disk Store: one JSON file per result, named by the
// config key. Writes go through a temp file + rename, so an interrupted
// sweep never leaves a half-written entry — whatever completed before
// the kill is picked up unchanged by the next run, and the sweep resumes
// from where it stopped. Several processes may share one directory.
//
// Corrupt entries self-heal: an entry that no longer parses — a torn
// write that bypassed the atomic rename (power loss, a sick filesystem)
// — is moved into a quarantine/ subdirectory, counted, and reported as
// a miss, so the sweep re-simulates the run instead of hard-failing on
// that key forever. The debris is kept, not deleted, so it can be
// examined afterwards.
type DirStore struct {
	dir         string
	quarantined atomic.Int64
}

// staleTempAge is how old a temp file must be before NewDirStore treats
// it as orphaned by a killed writer. One Put's write-then-rename takes
// milliseconds, so a younger temp file may belong to a live writer in
// another process sharing the directory and must be left alone.
const staleTempAge = 10 * time.Minute

// NewDirStore opens (creating if needed) the cache directory. Temp
// files orphaned by a killed writer are swept out on open.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err == nil {
		for _, p := range tmps {
			if fi, err := os.Stat(p); err == nil && time.Since(fi.ModTime()) > staleTempAge {
				os.Remove(p)
			}
		}
	}
	return &DirStore{dir: dir}, nil
}

// Quarantined returns the number of corrupt entries isolated since open.
func (s *DirStore) Quarantined() int {
	return int(s.quarantined.Load())
}

// quarantine isolates a corrupt entry: the file moves into quarantine/
// under a sequence-numbered name (repeated corruption of one key keeps
// every specimen), and the caller reports a miss so the run
// re-simulates. If the rename itself fails the debris is removed
// instead — a corrupt entry must never be served again.
func (s *DirStore) quarantine(key, path string) {
	n := s.quarantined.Add(1)
	qdir := filepath.Join(s.dir, "quarantine")
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%d.json", key, n))
	if err := os.MkdirAll(qdir, 0o755); err != nil || os.Rename(path, dst) != nil {
		os.Remove(path)
	}
}

func (s *DirStore) path(key string) (string, error) {
	// Keys are hex hashes; refuse anything that could escape the dir.
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("sweep: malformed store key %q", key)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Get implements Store. Entries whose decoded configuration no longer
// hashes to their key — recorded under an older Config schema — are
// treated as misses rather than served stale. Entries that no longer
// parse at all are quarantined and reported as misses, so one torn or
// corrupt file costs one re-simulation instead of failing every sweep
// that touches the key; errors are reserved for live I/O failures.
func (s *DirStore) Get(key string) (*sim.Result, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweep: read cache %s: %w", key, err)
	}
	var res sim.Result
	if err := json.Unmarshal(b, &res); err != nil {
		s.quarantine(key, p)
		return nil, false, nil
	}
	if res.Config.Key() != key {
		return nil, false, nil
	}
	return &res, true, nil
}

// Put implements Store.
func (s *DirStore) Put(key string, res *sim.Result) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: encode result %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write cache %s: %w", key, err)
	}
	return nil
}
