package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ndpage/internal/addr"
	"ndpage/internal/sim"
	"ndpage/internal/stats"
)

// fakeResult fabricates a result for cfg with the structured fields
// (PWC map, histograms) populated, so store round trips exercise the
// full shape.
func fakeResult(cfg sim.Config) *sim.Result {
	n := cfg.Normalize()
	return &sim.Result{
		Config:       n,
		Cycles:       12345 + n.Seed,
		TotalCycles:  23456,
		Instructions: 2000,
		Walks:        77,
		PWC: map[addr.Level]stats.HitMiss{
			addr.PL4: {Hits: 90, Misses: 10},
			addr.PL3: {Hits: 50, Misses: 50},
		},
		WalkOverlapHist: []uint64{0, 70, 7},
		InFlightHist:    []uint64{0, 1500, 500},
		DRAMMeanLatency: 83.25,
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	cfg := testBase()
	key := cfg.Key()
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	res := fakeResult(cfg)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || got != res {
		t.Fatalf("Get after Put = %v, %v, %v", got, ok, err)
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	s, err := NewDirStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testBase()
	key := cfg.Key()
	res := fakeResult(cfg)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("disk round trip lossy:\n got %+v\nwant %+v", got, res)
	}
	if _, ok, err := s.Get(testBaseWithSeed(9).Key()); ok || err != nil {
		t.Fatalf("miss = %v, %v", ok, err)
	}
}

func testBaseWithSeed(seed uint64) sim.Config {
	cfg := testBase()
	cfg.Seed = seed
	return cfg
}

func TestDirStoreRejectsMalformedKeys(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", "x.json"} {
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a malformed key", key)
		}
		if err := s.Put(key, fakeResult(testBase())); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
	}
}

// TestDirStoreSweepsOrphanedTempFiles: opening a store removes temp
// files old enough to have been orphaned by a killed writer, and leaves
// a fresh one alone — it may belong to another process's Put, about to
// be renamed into place.
func TestDirStoreSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "deadbeef.tmp-12345")
	live := filepath.Join(dir, "cafef00d.tmp-67890")
	for _, p := range []string{orphan, live} {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	age(t, orphan)
	if _, err := NewDirStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived NewDirStore: %v", err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("fresh temp file of a live writer removed by NewDirStore: %v", err)
	}
}

// age backdates path past staleTempAge, as if its writer died long ago.
func age(t *testing.T, path string) {
	t.Helper()
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// TestDirStoreCorruptEntry: a corrupt entry is quarantined and reported
// as a miss — one bad file costs one re-simulation, not a dead sweep —
// and the debris is preserved under quarantine/ for post-mortem.
func TestDirStoreCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testBase().Key()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("corrupt entry Get = hit %v, err %v; want quarantined miss", ok, err)
	}
	if n := s.Quarantined(); n != 1 {
		t.Errorf("Quarantined() = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
		t.Error("corrupt entry still in place after quarantine")
	}
	specimens, _ := filepath.Glob(filepath.Join(dir, "quarantine", key+".*.json"))
	if len(specimens) != 1 {
		t.Errorf("quarantine specimens = %d, want 1", len(specimens))
	}
	// The slot is writable again: a clean Put restores the key.
	if err := s.Put(key, fakeResult(testBase())); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); !ok || err != nil {
		t.Fatalf("healed entry Get = hit %v, err %v; want hit", ok, err)
	}
}

func TestDirStoreSchemaMismatchIsMiss(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A result stored under a key its config does not hash to (as after
	// a Config schema change) is a miss, not a stale hit.
	wrong := testBaseWithSeed(123).Key()
	if err := s.Put(wrong, fakeResult(testBase())); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(wrong); ok || err != nil {
		t.Fatalf("schema-mismatched entry = hit %v, err %v; want miss", ok, err)
	}
}

// TestSweepResumesFromDisk is the kill-mid-flight scenario: a sweep is
// cancelled partway, and a fresh Runner over the same cache directory
// performs only the remaining simulations.
func TestSweepResumesFromDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cfgs := seedPlan(1, 2, 3, 4, 5)

	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var firstCalls atomic.Int64
	r1 := &Runner{
		Store:    store1,
		Parallel: 1,
		Simulate: func(cfg sim.Config) (*sim.Result, error) {
			if firstCalls.Add(1) == 2 {
				cancel() // the "kill": no new runs dispatch after this
			}
			return fakeResult(cfg), nil
		},
	}
	if _, err := r1.Run(ctx, cfgs); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v, want context.Canceled", err)
	}
	done := firstCalls.Load()
	if done >= int64(len(cfgs)) || done < 2 {
		t.Fatalf("interrupted sweep ran %d of %d sims", done, len(cfgs))
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || int64(len(entries)) != done {
		t.Fatalf("cache holds %d entries after %d completed runs (%v)", len(entries), done, err)
	}

	// A fresh process: new store handle, new runner, same directory.
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var secondCalls atomic.Int64
	r2 := &Runner{
		Store:    store2,
		Parallel: 1,
		Simulate: func(cfg sim.Config) (*sim.Result, error) {
			secondCalls.Add(1)
			return fakeResult(cfg), nil
		},
	}
	out, err := r2.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := secondCalls.Load(); got != int64(len(cfgs))-done {
		t.Errorf("resume ran %d sims, want %d (cache must skip the %d completed)",
			got, int64(len(cfgs))-done, done)
	}
	for i, res := range out {
		if res == nil || res.Config.Seed != uint64(i+1) {
			t.Fatalf("resumed result %d wrong: %+v", i, res)
		}
	}
}

// TestDirStoreCrashRecovery is the kill-mid-write scenario, end to end:
// a sweep populates an on-disk cache, then the "process dies" leaving
// both kinds of debris — an orphaned temp file (killed before the
// rename) and a truncated entry (a torn write that bypassed the
// rename, as on power loss). The next open self-heals: the temp file
// is swept, the torn entry is quarantined and re-simulated, and the
// recovered cache is byte-identical to the pre-crash one.
func TestDirStoreCrashRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cfgs := seedPlan(1, 2)
	ctx := context.Background()

	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Store: store1}).Run(ctx, cfgs); err != nil {
		t.Fatal(err)
	}
	tornKey := cfgs[0].Normalize().Key()
	tornPath := filepath.Join(dir, tornKey+".json")
	clean, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}

	// The crash: one entry torn mid-write, one orphaned temp file.
	if err := os.WriteFile(tornPath, clean[:len(clean)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, tornKey+".tmp-999")
	if err := os.WriteFile(orphan, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	age(t, orphan)

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned temp file survived reopen")
	}
	var resims atomic.Int64
	r := &Runner{Store: store2, Simulate: func(cfg sim.Config) (*sim.Result, error) {
		resims.Add(1)
		return sim.RunConfig(cfg)
	}}
	if _, err := r.Run(ctx, cfgs); err != nil {
		t.Fatal(err)
	}
	if got := resims.Load(); got != 1 {
		t.Errorf("re-simulations after crash = %d, want 1 (only the torn entry)", got)
	}
	if got := store2.Quarantined(); got != 1 {
		t.Errorf("Quarantined() = %d, want 1", got)
	}
	healed, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, clean) {
		t.Error("re-simulated entry is not byte-identical to the pre-crash one")
	}
	specimens, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.json"))
	if len(specimens) != 1 {
		t.Errorf("quarantine specimens = %d, want 1", len(specimens))
	}
}
