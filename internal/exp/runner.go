// Package exp regenerates every table and figure of the paper's
// evaluation (DESIGN.md Section 4): the motivation studies (Figures 4-8,
// the Section IV-A scalars, the Section V-C PWC rates), the headline
// speedup figures (12, 13, 14), the NDPage ablation called out in
// DESIGN.md, and the sensitivity sweeps.
//
// The figure methods are thin table-builders over the sweep subsystem
// (internal/sweep): each figure declares its configuration cross product
// as a sweep.Plan, prefetches it through a shared sweep.Runner — which
// deduplicates runs figures share (e.g. Figure 4 and Figure 6) by
// content hash, runs misses on a worker pool, and memoizes failures —
// and then reads the per-cell results back from the Runner's Store.
// Pointing Store at a sweep.DirStore makes every figure incremental
// across processes: interrupted or repeated regenerations skip runs
// whose results are already on disk. Simulation failures propagate as
// errors from every figure method.
package exp

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
	"ndpage/internal/workload"
)

// Runner executes and memoizes the evaluation's simulations.
type Runner struct {
	// Instructions and Warmup override the per-core op budgets (0 =
	// simulator defaults). Experiments and quick benches share all other
	// configuration with sim.Config defaults.
	Instructions uint64
	Warmup       uint64
	// Footprint overrides the dataset size (0 = core-scaled default).
	Footprint uint64
	// Workloads restricts the benchmark set (nil = all of Table II).
	Workloads []string
	// Parallel bounds concurrent simulations (0 = min(4, GOMAXPROCS)).
	Parallel int
	// Progress, when non-nil, receives one line per run: completed,
	// served from a persistent cache, or failed.
	Progress io.Writer
	// Store caches results across figures — and, for a sweep.DirStore,
	// across processes (cached figure regeneration). Nil selects a
	// per-Runner in-memory store. A Store that also implements
	// sweep.Simulator receives every cold run.
	Store sweep.Store
	// Context cancels in-flight sweeps (nil = context.Background()).
	Context context.Context

	once  sync.Once
	sweep *sweep.Runner
}

// runner lazily builds the shared sweep runner. A persistent Store is
// wrapped in a read-through memo so the per-cell gets that follow each
// figure's prefetch hit process memory instead of re-reading and
// re-parsing the on-disk JSON for every table cell. A Store that can
// also compute (sweep.Simulator) becomes the runner's simulation
// function; the wrapper does not hide it, since Simulate is taken from
// the Store itself.
func (r *Runner) runner() *sweep.Runner {
	r.once.Do(func() {
		store := r.Store
		if store != nil {
			store = &memoStore{mem: sweep.NewMemStore(), back: store}
		}
		r.sweep = &sweep.Runner{
			Store:    store,
			Parallel: r.Parallel,
			Progress: r.progress,
		}
		if s, ok := r.Store.(sweep.Simulator); ok {
			r.sweep.Simulate = s.Simulate
		}
	})
	return r.sweep
}

// memoStore layers an in-process map over a persistent backing store:
// reads populate the map, writes go to both. Safe for concurrent use
// (both layers are).
type memoStore struct {
	mem  *sweep.MemStore
	back sweep.Store
}

func (s *memoStore) Get(key string) (*sim.Result, bool, error) {
	if res, ok, _ := s.mem.Get(key); ok {
		return res, true, nil
	}
	res, ok, err := s.back.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	s.mem.Put(key, res)
	return res, true, nil
}

func (s *memoStore) Put(key string, res *sim.Result) error {
	s.mem.Put(key, res)
	return s.back.Put(key, res)
}

// progress renders sweep events as lines: fresh runs, cache hits, and —
// crucially — failures, so a sweep that loses runs says so instead of
// completing silently thinner.
func (r *Runner) progress(e sweep.Event) {
	if r.Progress == nil {
		return
	}
	switch {
	case e.Err != nil:
		fmt.Fprintf(r.Progress, "fail %s: %v\n", e.Desc(), e.Err)
	case e.Cached:
		fmt.Fprintf(r.Progress, "cached %s (%.2fM cycles)\n", e.Desc(), float64(e.Cycles)/1e6)
	default:
		fmt.Fprintf(r.Progress, "done %s (%.2fM cycles)\n", e.Desc(), float64(e.Cycles)/1e6)
	}
}

// ctx returns the cancellation context.
func (r *Runner) ctx() context.Context {
	if r.Context != nil {
		return r.Context
	}
	return context.Background()
}

// WorkloadNames returns the active benchmark set in paper order.
func (r *Runner) WorkloadNames() []string {
	if r.Workloads != nil {
		return r.Workloads
	}
	return workload.Names()
}

// base is the configuration every evaluation run starts from: the
// Runner's budget and footprint overrides.
func (r *Runner) base() sim.Config {
	return sim.Config{
		Instructions:   r.Instructions,
		Warmup:         r.Warmup,
		FootprintBytes: r.Footprint,
	}
}

// scale fills cfg's zero budget fields from the Runner's overrides, so
// sensitivity configurations written against simulator defaults inherit
// the evaluation's scale.
func (r *Runner) scale(cfg sim.Config) sim.Config {
	if cfg.Instructions == 0 {
		cfg.Instructions = r.Instructions
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = r.Warmup
	}
	if cfg.FootprintBytes == 0 {
		cfg.FootprintBytes = r.Footprint
	}
	return cfg
}

// matrix builds the evaluation-matrix configuration for one cell.
func (r *Runner) matrix(sys memsys.Kind, mech core.Mechanism, cores int, wl string) sim.Config {
	cfg := r.base()
	cfg.System = sys
	cfg.Mechanism = mech
	cfg.Cores = cores
	cfg.Workload = wl
	return cfg
}

// get returns the result for cfg, simulating it if no store or memo
// holds it yet. Figure methods call prefetch first so gets are cache
// hits; a direct get still works (one synchronous run).
func (r *Runner) get(cfg sim.Config) (*sim.Result, error) {
	res, err := r.runner().RunOne(r.ctx(), r.scale(cfg))
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return res, nil
}

// prefetch runs every configuration of the plan through the worker
// pool (deduplicated against the store) and returns the first error.
func (r *Runner) prefetch(p sweep.Plan) error {
	p.Base = r.scale(p.Base)
	if _, err := r.runner().RunPlan(r.ctx(), p); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	return nil
}

// speedupPlan enumerates the Figure 12/13/14 matrix for one core count:
// every mechanism on the NDP system.
func (r *Runner) speedupPlan(cores int) sweep.Plan {
	return sweep.Plan{
		Base:       r.base(),
		Systems:    []memsys.Kind{memsys.NDP},
		Mechanisms: core.Mechanisms,
		Cores:      []int{cores},
		Workloads:  r.WorkloadNames(),
	}
}

// radixPairPlan enumerates CPU+NDP Radix runs (Figures 4-6) for the
// given core counts.
func (r *Runner) radixPairPlan(cores ...int) sweep.Plan {
	return sweep.Plan{
		Base:       r.base(),
		Systems:    []memsys.Kind{memsys.NDP, memsys.CPU},
		Mechanisms: []core.Mechanism{core.Radix},
		Cores:      cores,
		Workloads:  r.WorkloadNames(),
	}
}
