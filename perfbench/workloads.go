package main

import (
	"fmt"

	"ndpage/internal/core"
	"ndpage/internal/exp"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
	"ndpage/internal/workload"
)

// workloadDef is one named load: a matrix of simulation configurations
// run as one pass through the sweep path (and, for the figure workload,
// through exp's figure builder on top of it). Every pass is a closed
// loop: each sweep worker takes its next configuration only after the
// previous one has finished.
type workloadDef struct {
	name string
	// plan expands the pass's matrix. For the figure workload it
	// enumerates exactly the cells the figure requests, seed left at its
	// default (the figure path has no seed knob; see pass.simulate).
	plan func(tiny bool, seed uint64) sweep.Plan
	// figure, when set, builds the pass through exp's Figure 12 builder
	// instead of running the plan on a bare sweep.Runner.
	figure bool
	// probeWL names the plan column (one cell per mechanism) rerun for
	// the byte-identity check and the allocation count; probeMech and
	// probeWL name the cell whose machine the layer replays use.
	probeMech core.Mechanism
	probeWL   string
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workloadDef{
	{
		// The paper's Figure 12 matrix at default scale: set-up heavy
		// (ECH cuckoo tables), generator heavy, blocking MMU path.
		name: "fig12-ndp",
		plan: func(tiny bool, _ uint64) sweep.Plan {
			s := fig12Scale(tiny)
			return sweep.Plan{
				Base:       sim.Config{Instructions: s.instructions, Warmup: s.warmup, FootprintBytes: s.footprint},
				Systems:    []memsys.Kind{memsys.NDP},
				Mechanisms: core.Mechanisms,
				Cores:      []int{1},
				Workloads:  s.workloads,
			}
		},
		figure:    true,
		probeMech: core.NDPage,
		probeWL:   "bfs",
	},
	{
		// 64 non-blocking cores on GUPS with an explicit 4 GB footprint
		// (the core-scaled default, 41.5 GB, does not fit the 16 GB
		// machine): engine, async walker queueing, resource.Slots and
		// DRAM queueing, Victima's translation blocks.
		name: "manycore-mlp",
		plan: func(tiny bool, seed uint64) sweep.Plan {
			base := sim.Config{System: memsys.NDP, Cores: 64, MLP: 4, FootprintBytes: 4 << 30,
				Instructions: 12_000, Warmup: 1_200, Seed: seed}
			if tiny {
				base.FootprintBytes, base.Instructions, base.Warmup = 512<<20, 300, 30
			}
			return sweep.Plan{
				Base:       base,
				Mechanisms: []core.Mechanism{core.Radix, core.NDPage, core.Victima},
				Workloads:  []string{"rnd"},
			}
		},
		probeMech: core.Victima,
		probeWL:   "rnd",
	},
	{
		// The CPU hierarchy (L1/L2/L3, DDR4, mesh) under demand paging:
		// page-table writes on the measured path, THP faults and
		// compaction, write-backs through three cache levels.
		name: "cpu-demand",
		plan: func(tiny bool, seed uint64) sweep.Plan {
			base := sim.Config{System: memsys.CPU, Cores: 4, DemandPaging: true, Seed: seed}
			if tiny {
				base.FootprintBytes, base.Instructions, base.Warmup = 256<<20, 2_000, 200
			}
			return sweep.Plan{
				Base:       base,
				Mechanisms: []core.Mechanism{core.Radix, core.HugePage, core.NDPage},
				Workloads:  []string{"rnd", "pr"},
			}
		},
		probeMech: core.HugePage,
		probeWL:   "rnd",
	},
}

// figScale is the Figure 12 workload's scale: the exp.Runner overrides.
type figScale struct {
	instructions, warmup, footprint uint64
	workloads                       []string
}

// fig12Scale returns no overrides at full scale (the paper figure's
// default scale, all of Table II) and a two-benchmark reduced
// footprint for the benchmark's own test.
func fig12Scale(tiny bool) figScale {
	if tiny {
		return figScale{instructions: 3_000, warmup: 300, footprint: 256 << 20, workloads: []string{"bfs", "rnd"}}
	}
	return figScale{workloads: workload.Names()}
}

// expRunner returns an exp.Runner at the scale over the given store.
func (s figScale) expRunner(workers int, store sweep.Store) *exp.Runner {
	return &exp.Runner{
		Instructions: s.instructions,
		Warmup:       s.warmup,
		Footprint:    s.footprint,
		Workloads:    s.workloads,
		Parallel:     workers,
		Store:        store,
	}
}

// probe returns the workload's probe cell at the seed.
func (w *workloadDef) probe(tiny bool, seed uint64) sim.Config {
	p := w.plan(tiny, seed)
	cfg := p.Base
	cfg.Mechanism, cfg.Workload, cfg.Seed = w.probeMech, w.probeWL, seed
	if len(p.Systems) == 1 {
		cfg.System = p.Systems[0]
	}
	if len(p.Cores) == 1 {
		cfg.Cores = p.Cores[0]
	}
	return cfg
}

// lookupWorkload returns the named workload definition.
func lookupWorkload(name string) (*workloadDef, error) {
	names := make([]string, len(workloads))
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
