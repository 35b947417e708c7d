package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// conformanceMechanisms is every selectable mechanism: the paper's
// evaluated set, the NDPage ablation variants, and the related-work
// mechanisms (DESIGN.md "Mechanism zoo"). A mechanism added to
// core.ParseMechanism without joining this list fails
// TestConformanceCoversAllMechanisms.
var conformanceMechanisms = []core.Mechanism{
	core.Radix, core.ECH, core.HugePage, core.NDPage, core.Ideal,
	core.FlattenOnly, core.BypassOnly, core.Victima, core.NMT, core.PCAX,
}

// conformanceCfg is the pinned mini-matrix cell: small enough that the
// full mechanism x MLP matrix runs in seconds (also under -race), large
// enough that every mechanism's machinery engages (TLB misses, walks,
// demand faults in the cold tail).
func conformanceCfg(mech core.Mechanism, mlp int) sim.Config {
	return sim.Config{
		System:         memsys.NDP,
		Cores:          2,
		Mechanism:      mech,
		Workload:       "rnd",
		FootprintBytes: 1 << 30,
		MemoryBytes:    4 << 30,
		Instructions:   4_000,
		Warmup:         500,
		MLP:            mlp,
	}
}

// TestConformanceCoversAllMechanisms pins the matrix to the parseable
// mechanism set, so a new mechanism cannot ship without conformance
// coverage.
func TestConformanceCoversAllMechanisms(t *testing.T) {
	covered := map[core.Mechanism]bool{}
	for _, m := range conformanceMechanisms {
		covered[m] = true
	}
	for _, m := range conformanceMechanisms {
		if _, err := core.ParseMechanism(m.String()); err != nil {
			t.Errorf("conformance mechanism %s is not parseable: %v", m, err)
		}
	}
	// Every named mechanism parses back to itself; probe the namespace
	// by round-tripping the String of a generous enum range.
	for i := 0; i < 64; i++ {
		m := core.Mechanism(i)
		parsed, err := core.ParseMechanism(m.String())
		if err != nil {
			continue // not a real mechanism (String falls back)
		}
		if parsed == m && !covered[m] {
			t.Errorf("mechanism %s is selectable but not in the conformance matrix", m)
		}
	}
}

// TestConformanceMatrix runs every mechanism under both core models and
// asserts the cross-mechanism invariants: translation counts match the
// issued memory ops, derived rates are finite fractions, the sim.Result
// survives a JSON round trip, and a same-seed rerun is cycle-identical.
func TestConformanceMatrix(t *testing.T) {
	for _, mech := range conformanceMechanisms {
		for _, mlp := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/mlp%d", mech, mlp), func(t *testing.T) {
				cfg := conformanceCfg(mech, mlp)
				m, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := m.Run()

				if res.Instructions == 0 || res.Loads+res.Stores == 0 {
					t.Fatalf("empty window: %d instructions, %d loads, %d stores",
						res.Instructions, res.Loads, res.Stores)
				}
				// Every measured load/store translated exactly once
				// (TranslateCode is counted separately).
				var translations uint64
				for i := 0; i < cfg.Normalize().Cores; i++ {
					translations += m.MMU(i).Stats().Translations.Value()
				}
				if translations != res.Loads+res.Stores {
					t.Errorf("translations = %d, want loads+stores = %d",
						translations, res.Loads+res.Stores)
				}

				for name, rate := range map[string]float64{
					"TLBMissRate":     res.TLBMissRate(),
					"L1TLB miss":      res.L1TLB.MissRate(),
					"L2TLB miss":      res.L2TLB.MissRate(),
					"L1DataMissRate":  res.L1DataMissRate(),
					"L1PTEMissRate":   res.L1PTEMissRate(),
					"PTEAccessShare":  res.PTEAccessShare(),
					"MSHRHitRate":     res.MSHRHitRate(),
					"WalkOverlapRate": res.WalkOverlapRate(),
					"VictimaHitRate":  res.VictimaHitRate(),
					"IdentityHitRate": res.IdentityHitRate(),
					"PCXHitRate":      res.PCXHitRate(),
				} {
					if rate < 0 || rate > 1 || rate != rate {
						t.Errorf("%s = %v, want a fraction in [0, 1]", name, rate)
					}
				}
				// Per-op translation cycles overlap under MLP > 1, so the
				// overhead is a ratio, not a fraction — but always finite
				// and non-negative.
				if ov := res.TranslationOverhead(); ov < 0 || ov != ov {
					t.Errorf("TranslationOverhead = %v, want finite and non-negative", ov)
				}

				// Mechanism-specific machinery engages exactly under its
				// mechanism.
				switch mech {
				case core.Victima:
					if res.VictimaProbes == 0 {
						t.Error("Victima ran but the store saw no probes")
					}
				case core.NMT:
					if res.IdentityHits+res.IdentityMisses == 0 {
						t.Error("NMT ran but no identity range checks happened")
					}
				case core.PCAX:
					if res.PCX.Total() == 0 {
						t.Error("PCAX ran but the PC-indexed table saw no probes")
					}
				default:
					if res.VictimaProbes != 0 || res.IdentityHits+res.IdentityMisses != 0 || res.PCX.Total() != 0 {
						t.Errorf("%s leaked mechanism-specific activity: victima=%d identity=%d pcx=%d",
							mech, res.VictimaProbes, res.IdentityHits+res.IdentityMisses, res.PCX.Total())
					}
				}

				// sim.Result survives a JSON round trip (the sweep cache's
				// storage format).
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				var back sim.Result
				if err := json.Unmarshal(b, &back); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if !reflect.DeepEqual(*res, back) {
					t.Error("sim.Result did not survive a JSON round trip")
				}

				// Same-seed determinism: an identical machine reproduces
				// the run bit for bit.
				m2, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res2 := m2.Run()
				b2, err := json.Marshal(res2)
				if err != nil {
					t.Fatalf("marshal rerun: %v", err)
				}
				if string(b) != string(b2) {
					t.Errorf("same-seed rerun diverged (%d vs %d cycles)", res.Cycles, res2.Cycles)
				}
			})
		}
	}
}

// TestConformanceParallel runs the whole mechanism matrix through the
// sweep runner on one worker and on four, and requires byte-identical
// result JSON: the execution schedule must not leak into the simulated
// timing.
func TestConformanceParallel(t *testing.T) {
	var cfgs []sim.Config
	for _, mech := range conformanceMechanisms {
		cfgs = append(cfgs, conformanceCfg(mech, 2))
	}
	runAt := func(parallel int) []*sim.Result {
		r := &sweep.Runner{Parallel: parallel}
		out, err := r.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return out
	}
	one, four := runAt(1), runAt(4)
	for i := range cfgs {
		a, _ := json.Marshal(one[i])
		b, _ := json.Marshal(four[i])
		if string(a) != string(b) {
			t.Errorf("%s: results differ between 1 and 4 workers", cfgs[i].Desc())
		}
	}
}
