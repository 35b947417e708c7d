package ndpage

import (
	"ndpage/internal/sweep"
)

// Plan declares a cross product of simulation configurations — the
// shape of the paper's evaluation (systems x mechanisms x cores x
// workloads) and of any custom design-space study. Base seeds every
// run, non-empty axes multiply, and Variants append arbitrary Config
// mutations as a final axis:
//
//	plan := ndpage.Plan{
//		Base:       ndpage.Config{Instructions: 100_000},
//		Systems:    []ndpage.System{ndpage.NDP},
//		Mechanisms: []ndpage.Mechanism{ndpage.Radix, ndpage.NDPage},
//		Cores:      []int{1, 4, 8},
//		Workloads:  []string{"bfs", "gups"},
//	}
//	results, err := new(ndpage.Sweep).RunPlan(ctx, plan)
type Plan = sweep.Plan

// Variant is one named Config mutation on a Plan's variant axis.
type Variant = sweep.Variant

// Sweep executes simulation configurations on a bounded worker pool,
// deduplicating runs by Config.Key() against a pluggable Store. The
// zero value is ready to use (in-memory store, min(4, GOMAXPROCS)
// workers). Point Store at NewDirStore to make sweeps incremental
// across processes: a cancelled or killed sweep resumes from the runs
// that already completed.
type Sweep = sweep.Runner

// SweepEvent reports one run's fate (simulated, cached, or failed) to
// Sweep.Progress.
type SweepEvent = sweep.Event

// Store persists sweep results content-addressed by Config.Key().
type Store = sweep.Store

// NewMemStore returns an in-process result store.
func NewMemStore() *sweep.MemStore { return sweep.NewMemStore() }

// NewDirStore opens (creating if needed) an on-disk result store: one
// JSON file per run, named by the config's content hash, written
// atomically.
func NewDirStore(dir string) (*sweep.DirStore, error) { return sweep.NewDirStore(dir) }

// RunError is the structured failure of one simulation run: a build
// error, or a simulator panic recovered with its stack. Failures are
// deterministic for their configuration, so a Sweep memoizes them.
type RunError = sweep.RunError
