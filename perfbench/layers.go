package main

import (
	"fmt"
	"math"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/sim"
	"ndpage/internal/stats"
)

// ratio divides, returning 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simulatedMetrics pools the simulated per-layer statistics of a
// pass's results: sums of numerators over sums of denominators, so a
// long configuration weighs more than a short one. These are exact per
// seed; a change made only for speed leaves every one unchanged.
func simulatedMetrics(results []*sim.Result) map[string]metric {
	var instr, xlat, walks, walkCycles, pte, queue, mshr float64
	var l1tlb, l2tlb, pl2, l1d, l1pte stats.HitMiss
	var bypassed, dramAll, dramPTE, dramLat, dramQueue, faults, compaction float64
	for _, r := range results {
		if r == nil {
			continue
		}
		instr += float64(r.Instructions)
		xlat += float64(r.TranslationCycles)
		walks += float64(r.Walks)
		walkCycles += float64(r.WalkCycles)
		pte += float64(r.PTEAccesses)
		queue += float64(r.WalkQueueCycles)
		mshr += float64(r.MSHRHits)
		l1tlb.Merge(r.L1TLB)
		l2tlb.Merge(r.L2TLB)
		pl2.Merge(r.PWC[addr.PL2])
		l1d.Merge(r.L1Data)
		l1pte.Merge(r.L1PTE)
		bypassed += float64(r.L1Bypassed)
		var n uint64
		for _, c := range r.DRAM {
			n += c
		}
		dramAll += float64(n)
		dramPTE += float64(r.DRAM[access.PTE])
		dramLat += r.DRAMMeanLatency * float64(n)
		dramQueue += r.DRAMMeanQueue * float64(n)
		faults += float64(r.Faults4K + r.Faults2M)
		compaction += float64(r.CompactionCycles)
	}
	kinstr := instr / 1000
	return map[string]metric{
		"core.l1tlb_miss_rate":              {l1tlb.MissRate(), "fraction"},
		"core.l2tlb_miss_rate":              {l2tlb.MissRate(), "fraction"},
		"core.xlat_cpi":                     {ratio(xlat, instr), "cycles/instr"},
		"pwc.pl2_hit_rate":                  {pl2.HitRate(), "fraction"},
		"walker.walks_per_kinstr":           {ratio(walks, kinstr), "1/kinstr"},
		"walker.pte_per_walk":               {ratio(pte, walks), "count"},
		"walker.mean_cycles":                {ratio(walkCycles, walks), "cycles"},
		"walker.queue_cycles_per_walk":      {ratio(queue, walks), "cycles"},
		"walker.mshr_hit_rate":              {ratio(mshr, mshr+walks), "fraction"},
		"memsys.l1d_miss_rate":              {l1d.MissRate(), "fraction"},
		"memsys.l1_pte_miss_rate":           {l1pte.MissRate(), "fraction"},
		"memsys.pte_bypass_frac":            {ratio(bypassed, bypassed+float64(l1pte.Total())), "fraction"},
		"dram.accesses_per_kinstr":          {ratio(dramAll, kinstr), "1/kinstr"},
		"dram.mean_latency_cycles":          {ratio(dramLat, dramAll), "cycles"},
		"dram.mean_queue":                   {ratio(dramQueue, dramAll), "count"},
		"dram.pte_traffic_frac":             {ratio(dramPTE, dramAll), "fraction"},
		"osmm.faults_per_kinstr":            {ratio(faults, kinstr), "1/kinstr"},
		"osmm.compaction_cycles_per_kinstr": {ratio(compaction, kinstr), "cycles/kinstr"},
	}
}

// checkInvariants returns one message per violated per-configuration
// invariant: positive cycles, the full measured budget on every core,
// and every rate finite and in [0, 1]. Translation overhead is not
// among the rates: with overlapped ops (MLP > 1) it counts cycles more
// than once and legitimately exceeds 1.
func checkInvariants(r *sim.Result) []string {
	var bad []string
	desc := r.Config.Desc()
	if r.Cycles == 0 {
		bad = append(bad, desc+": zero cycles")
	}
	if want := r.Config.Instructions * uint64(r.Config.Cores); r.Instructions != want {
		bad = append(bad, fmt.Sprintf("%s: %d measured instructions, want %d", desc, r.Instructions, want))
	}
	rates := map[string]float64{
		"l1tlb miss":    r.L1TLB.MissRate(),
		"l2tlb miss":    r.L2TLB.MissRate(),
		"tlb miss":      r.TLBMissRate(),
		"l1 data miss":  r.L1DataMissRate(),
		"l1 pte miss":   r.L1PTEMissRate(),
		"mshr hit":      r.MSHRHitRate(),
		"walk overlap":  r.WalkOverlapRate(),
		"pte share":     r.PTEAccessShare(),
		"victima hit":   r.VictimaHitRate(),
		"identity hit":  r.IdentityHitRate(),
		"pcx hit":       r.PCXHitRate(),
		"pwc pl2 hit":   r.PWCHitRate(addr.PL2),
		"pwc pl3 hit":   r.PWCHitRate(addr.PL3),
		"pwc pl4 hit":   r.PWCHitRate(addr.PL4),
		"occupancy pl1": r.OccupancyRate(addr.PL1),
		"occupancy pl2": r.OccupancyRate(addr.PL2),
		"occupancy pl3": r.OccupancyRate(addr.PL3),
		"occupancy pl4": r.OccupancyRate(addr.PL4),
	}
	for name, v := range rates {
		if math.IsNaN(v) || v < 0 || v > 1 {
			bad = append(bad, fmt.Sprintf("%s: %s rate %v outside [0, 1]", desc, name, v))
		}
	}
	return bad
}

// The paper's Figure 12 headline ratios (single-core NDP): NDPage over
// Radix, over ECH, and over HugePage.
var paperFig12 = [3]float64{1.344, 1.143, 1.244}

// fig12Ratios computes the Figure 12 geomean speedups over Radix
// straight from a complete pass's results, independently of exp's
// table builder, for each of the figure's columns (ECH, HugePage,
// NDPage, Ideal).
func fig12Ratios(results []*sim.Result, tables []string) map[core.Mechanism]float64 {
	cycles := map[core.Mechanism]map[string]uint64{}
	for _, r := range results {
		m := r.Config.Mechanism
		if cycles[m] == nil {
			cycles[m] = map[string]uint64{}
		}
		cycles[m][r.Config.Workload] = r.Cycles
	}
	out := map[core.Mechanism]float64{}
	for _, m := range []core.Mechanism{core.ECH, core.HugePage, core.NDPage, core.Ideal} {
		var s []float64
		for _, wl := range tables {
			s = append(s, float64(cycles[core.Radix][wl])/float64(cycles[m][wl]))
		}
		out[m] = stats.GeoMean(s)
	}
	return out
}

// paperGapPct is exp(mean |ln(measured/paper)|) - 1, in percent, over
// the three Figure 12 ratios the paper quotes.
func paperGapPct(g map[core.Mechanism]float64) float64 {
	measured := [3]float64{g[core.NDPage], g[core.NDPage] / g[core.ECH], g[core.NDPage] / g[core.HugePage]}
	var sum float64
	for i, m := range measured {
		sum += math.Abs(math.Log(m / paperFig12[i]))
	}
	return 100 * (math.Exp(sum/3) - 1)
}
