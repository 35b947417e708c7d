package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ndpage/internal/sim"
)

// fakeSim returns a Simulate stub that counts invocations and fabricates
// a result derived from the config.
func fakeSim(calls *atomic.Int64) func(sim.Config) (*sim.Result, error) {
	return func(cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return &sim.Result{Config: cfg, Cycles: 1000 + cfg.Seed}, nil
	}
}

func seedPlan(seeds ...uint64) []sim.Config {
	cfgs, err := Plan{Base: testBase(), Seeds: seeds}.Configs()
	if err != nil {
		panic(err)
	}
	return cfgs
}

func TestRunnerDedupesWithinRun(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Simulate: fakeSim(&calls)}
	cfg := testBase()
	out, err := r.Run(context.Background(), []sim.Config{cfg, cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("3 identical configs simulated %d times, want 1", calls.Load())
	}
	for i, res := range out {
		if res == nil || res != out[0] {
			t.Fatalf("result %d not deduplicated: %v", i, res)
		}
	}
}

func TestRunnerMemoizesAcrossRuns(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Simulate: fakeSim(&calls)}
	cfgs := seedPlan(1, 2)
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("second Run re-simulated: %d total calls, want 2", calls.Load())
	}
	if out[0].Cycles != 1001 || out[1].Cycles != 1002 {
		t.Errorf("results out of order: %d, %d", out[0].Cycles, out[1].Cycles)
	}
}

func TestRunnerResultsInInputOrder(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Parallel: 4, Simulate: fakeSim(&calls)}
	cfgs := seedPlan(1, 2, 3, 4, 5, 6, 7, 8)
	out, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res == nil || res.Config.Seed != uint64(i+1) {
			t.Fatalf("result %d out of order: %+v", i, res)
		}
	}
}

func TestRunnerNegativeCachesFailures(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	var events []Event
	r := &Runner{
		Progress: func(e Event) { events = append(events, e) },
		Simulate: func(cfg sim.Config) (*sim.Result, error) {
			calls.Add(1)
			if cfg.Seed == 2 {
				return nil, boom
			}
			return &sim.Result{Config: cfg, Cycles: cfg.Seed}, nil
		},
	}
	cfgs := seedPlan(1, 2, 3)
	out, err := r.Run(context.Background(), cfgs)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Op != "simulate" || re.Desc != cfgs[1].Desc() {
		t.Errorf("Run error %v is not a RunError naming the failed run", err)
	}
	if out[0] == nil || out[1] != nil || out[2] == nil {
		t.Fatalf("unexpected results: %v", out)
	}
	// The failure emitted a progress event naming the run (a sweep must
	// not lose runs silently).
	var failEvents int
	for _, e := range events {
		if e.Err != nil {
			failEvents++
			if e.Desc() == "" {
				t.Error("failure event has empty description")
			}
		}
	}
	if failEvents != 1 {
		t.Errorf("failure events = %d, want 1", failEvents)
	}
	// The failure is memoized: a second Run reports it without
	// re-simulating.
	before := calls.Load()
	if _, err := r.Run(context.Background(), cfgs); !errors.Is(err, boom) {
		t.Fatalf("memoized error lost: %v", err)
	}
	if calls.Load() != before {
		t.Errorf("failed run was re-simulated")
	}
}

func TestRunnerCachedEventsOnlyForForeignResults(t *testing.T) {
	var calls atomic.Int64
	store := NewMemStore()

	// Runner 1 simulates seeds 1 and 2 into the shared store. Its own
	// memo hits are silent: cached events mean reuse of foreign work.
	var ownCached int
	r1 := &Runner{
		Store: store,
		Progress: func(e Event) {
			if e.Cached {
				ownCached++
			}
		},
		Simulate: fakeSim(&calls),
	}
	for i := 0; i < 3; i++ {
		if _, err := r1.Run(context.Background(), seedPlan(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if ownCached != 0 {
		t.Errorf("runner announced %d of its own results as cached", ownCached)
	}

	// Runner 2 over the same store announces each pre-existing result
	// exactly once, however often it is re-served.
	var cached, done int
	r2 := &Runner{
		Store: store,
		Progress: func(e Event) {
			if e.Err == nil && e.Cached {
				cached++
			} else if e.Err == nil {
				done++
			}
		},
		Simulate: fakeSim(&calls),
	}
	for i := 0; i < 3; i++ {
		if _, err := r2.Run(context.Background(), seedPlan(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if cached != 2 || done != 1 {
		t.Errorf("warm runner events: %d cached, %d simulated; want 2 and 1", cached, done)
	}
}

func TestRunnerCancelledContext(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Simulate: fakeSim(&calls)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := r.Run(ctx, seedPlan(1, 2, 3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("cancelled Run simulated %d configs", calls.Load())
	}
	for i, res := range out {
		if res != nil {
			t.Errorf("result %d non-nil after cancellation", i)
		}
	}
}

func TestRunnerValidatesConfigs(t *testing.T) {
	r := &Runner{Simulate: fakeSim(new(atomic.Int64))}
	bad := testBase()
	bad.Workload = "no-such"
	if _, err := r.Run(context.Background(), []sim.Config{bad}); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
}

func TestRunPlanEndToEnd(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Parallel: 2, Simulate: fakeSim(&calls)}
	out, err := r.RunPlan(context.Background(), Plan{Base: testBase(), Seeds: []uint64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || calls.Load() != 4 {
		t.Fatalf("RunPlan: %d results, %d sims", len(out), calls.Load())
	}
}

// TestRunnerRealSimulation exercises the default sim.RunConfig path once
// with a tiny budget: the sweep layer and the simulator agree end to
// end, and a duplicated config is served from the store.
func TestRunnerRealSimulation(t *testing.T) {
	r := &Runner{}
	cfg := testBase()
	a, err := r.RunOne(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunOne(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second RunOne did not hit the store")
	}
	if a.Cycles == 0 || a.Instructions == 0 {
		t.Errorf("empty result: %+v", a)
	}
}

// TestRunnerRecoversSimulatorPanics: a panicking configuration costs
// one failed run with a structured, stack-carrying RunError — not the
// process — healthy runs in the same sweep complete, and the failure is
// memoized like any other.
func TestRunnerRecoversSimulatorPanics(t *testing.T) {
	var panics atomic.Int64
	r := &Runner{
		Simulate: func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed == 2 {
				panics.Add(1)
				panic("poisoned page table state")
			}
			return &sim.Result{Config: cfg, Cycles: cfg.Seed}, nil
		},
	}
	out, err := r.Run(context.Background(), seedPlan(1, 2, 3))
	if err == nil {
		t.Fatal("panicking config reported no error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a RunError", err)
	}
	if !re.Panicked || re.Stack == "" {
		t.Errorf("RunError = {Panicked:%v stack %d bytes}, want a panic with its stack", re.Panicked, len(re.Stack))
	}
	if out[0] == nil || out[2] == nil || out[1] != nil {
		t.Errorf("healthy runs lost around the panic: %v", out)
	}
	if _, err := r.Run(context.Background(), seedPlan(2)); !errors.As(err, &re) || !re.Panicked {
		t.Fatalf("memoized panic lost: %v", err)
	}
	if panics.Load() != 1 {
		t.Errorf("panicking config simulated %d times, want 1", panics.Load())
	}
}
