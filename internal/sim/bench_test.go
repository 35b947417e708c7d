package sim

import (
	"testing"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
)

// stepConfig is the step-throughput machine: four NDP cores on pr over a
// 512 MB footprint, with one-instruction warmup and window budgets (the
// callers advance the machine themselves).
func stepConfig(mech core.Mechanism) Config {
	return Config{
		System:         memsys.NDP,
		Cores:          4,
		Mechanism:      mech,
		Workload:       "pr",
		FootprintBytes: 512 << 20,
		MemoryBytes:    4 << 30,
		FragHoles:      200,
		Warmup:         1,
		Instructions:   1,
	}
}

// stepConfigMLP is stepConfig's non-blocking variant: MLP 4 over one
// shared two-slot walker, so walks queue, coalesce and overlap.
func stepConfigMLP() Config {
	cfg := stepConfig(core.Radix)
	cfg.MLP = 4
	cfg.SharedWalker = true
	cfg.WalkerWidth = 2
	return cfg
}

// BenchmarkStepThroughput measures raw engine speed in simulated
// instructions per second for each mechanism (the simulator's own
// performance, not the simulated machine's). Each iteration advances
// every core by one instruction, so ns/op is per Cores instructions —
// and allocs/op is the steady-state measured-instruction-path
// allocation count, which TestStepAllocBudget holds to stepAllocBudget.
func BenchmarkStepThroughput(b *testing.B) {
	for _, mech := range core.Mechanisms {
		b.Run(mech.String(), func(b *testing.B) {
			benchmarkStep(b, stepConfig(mech))
		})
	}
}

// BenchmarkStepThroughputMLP is the non-blocking variant: typed
// translation/completion events, pooled in-flight op records, and
// walker slot contention on the event schedule. Its allocs/op pins the
// zero-allocation property of the MLP > 1 path, which used to allocate
// several closures per instruction.
func BenchmarkStepThroughputMLP(b *testing.B) {
	benchmarkStep(b, stepConfigMLP())
}

// benchmarkStep advances a machine built from cfg by one instruction per
// core per iteration.
func benchmarkStep(b *testing.B, cfg Config) {
	b.ReportAllocs()
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.run(1) // settle init
	b.ResetTimer()
	target := uint64(1)
	for i := 0; i < b.N; i++ {
		target++
		m.run(target)
	}
	b.ReportMetric(float64(len(m.cores)), "cores")
}

// stepAllocBudget bounds the mean allocations of one run(target+1) step
// (one instruction on every core) once a machine is warm: the pooled
// records, typed events and scratch buffers of both core models keep
// the per-instruction path allocation-free. It is 0 because any slack
// hides a leak: at 2, one extra allocation per memory op still passed.
const stepAllocBudget = 0

// TestStepAllocBudget holds the step-throughput configurations — the
// five paper mechanisms on the blocking core, and the MLP 4
// shared-walker machine — to stepAllocBudget allocations per step.
func TestStepAllocBudget(t *testing.T) {
	var cfgs []Config
	for _, mech := range core.Mechanisms {
		cfgs = append(cfgs, stepConfig(mech))
	}
	cfgs = append(cfgs, stepConfigMLP())
	for _, cfg := range cfgs {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		target := uint64(1)
		for ; target <= 2000; target++ { // warm the pools, TLBs and caches
			m.run(target)
		}
		allocs := testing.AllocsPerRun(200, func() {
			target++
			m.run(target)
		})
		if allocs > stepAllocBudget {
			t.Errorf("%v (MLP %d): %.1f allocs per step, budget %d", m.cfg.Mechanism, m.cfg.MLP, allocs, stepAllocBudget)
		}
	}
}

// runAllocBudget bounds the allocations of one whole simulation —
// construction, warmup and measurement — on a 4-core NDP NDPage bfs
// machine. They happen at population (page-table chunks and nodes,
// pools, scratch buffers), not per instruction: about 950 are measured.
const runAllocBudget = 1200

// TestRunAllocBudget holds one whole simulation to runAllocBudget
// allocations.
func TestRunAllocBudget(t *testing.T) {
	cfg := Config{
		System:         memsys.NDP,
		Cores:          4,
		Mechanism:      core.NDPage,
		Workload:       "bfs",
		FootprintBytes: 512 << 20,
		Warmup:         5_000,
		Instructions:   50_000,
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RunConfig(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > runAllocBudget {
		t.Errorf("%.0f allocations per simulation, budget %d", allocs, runAllocBudget)
	}
}

// BenchmarkMachineConstruction measures setup cost (allocator,
// fragmentation, dataset population, table build).
func BenchmarkMachineConstruction(b *testing.B) {
	for _, mech := range []core.Mechanism{core.Radix, core.NDPage, core.ECH} {
		b.Run(mech.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := New(Config{
					System:         memsys.NDP,
					Cores:          2,
					Mechanism:      mech,
					Workload:       "rnd",
					FootprintBytes: 512 << 20,
					MemoryBytes:    4 << 30,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
