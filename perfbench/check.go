package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"ndpage/internal/core"
	"ndpage/internal/sim"
	"ndpage/internal/stats"
	"ndpage/internal/sweep"
)

// digest hashes the JSON of every result of a pass, in plan order: two
// passes with equal digests simulated exactly the same statistics.
func digest(results []*sim.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// rerun simulates the probe workload's column once more, serially:
// one cell per mechanism of the plan. It checks that each Result JSON
// is byte-identical to the pass's, and returns the cells rerun and the
// host heap allocations per 1000 simulated instructions inside their
// Machine.Run calls, pooled over the cells.
func rerun(w *workloadDef, tiny bool, seed uint64, first passResult) (cells int, allocsPerKinstr float64, err error) {
	cfgs, err := w.plan(tiny, seed).Configs()
	if err != nil {
		return 0, 0, err
	}
	var mallocs, instr uint64
	for i, cfg := range cfgs {
		if cfg.Workload != w.probeWL {
			continue
		}
		cells++
		if first.results[i] == nil {
			return cells, 0, fmt.Errorf("%s has no result in the pass", cfg.Desc())
		}
		cfg.Seed = seed
		m, err := sim.New(cfg)
		if err != nil {
			return cells, 0, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := m.Run()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		instr += simulatedInstr(res)
		a, err := json.Marshal(first.results[i])
		if err != nil {
			return cells, 0, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return cells, 0, err
		}
		if !bytes.Equal(a, b) {
			return cells, 0, fmt.Errorf("rerun of %s is not byte-identical to the pass's result", cfg.Desc())
		}
	}
	if cells == 0 {
		return 0, 0, fmt.Errorf("the plan has no %s cell", w.probeWL)
	}
	return cells, float64(mallocs) / (float64(instr) / 1000), nil
}

// checkFigure rebuilds the Figure 12 table from a store holding
// JSON round-tripped copies of the pass's results, and requires it to
// equal the pass's table with no cell simulated again. It then checks
// the table's geomean row against ratios computed straight from the
// results, and returns those ratios' paper gap.
func checkFigure(w *workloadDef, tiny bool, seed uint64, first passResult) (gapPct float64, err error) {
	cfgs, err := w.plan(tiny, seed).Configs()
	if err != nil {
		return 0, err
	}
	store := sweep.NewMemStore()
	for i, c := range cfgs {
		b, err := json.Marshal(first.results[i])
		if err != nil {
			return 0, err
		}
		var r sim.Result
		if err := json.Unmarshal(b, &r); err != nil {
			return 0, err
		}
		if err := store.Put(c.Key(), &r); err != nil {
			return 0, err
		}
	}
	refuse := func(cfg sim.Config) (*sim.Result, error) {
		return nil, fmt.Errorf("cell %s not served from the store", cfg.Desc())
	}
	s := fig12Scale(tiny)
	t, err := s.expRunner(1, hookStore{store, refuse}).Fig12()
	if err != nil {
		return 0, fmt.Errorf("rebuilding figure 12 from the store: %w", err)
	}
	if t.String() != first.table.String() {
		return 0, fmt.Errorf("figure 12 rebuilt from the store differs from the pass's table")
	}

	g := fig12Ratios(first.results, s.workloads)
	want := []string{"geomean"}
	for _, m := range []core.Mechanism{core.ECH, core.HugePage, core.NDPage, core.Ideal} {
		want = append(want, stats.F3(g[m]))
	}
	got := t.Rows[len(t.Rows)-1]
	if strings.Join(got, " ") != strings.Join(want, " ") {
		return 0, fmt.Errorf("figure 12 geomean row %v differs from ratios computed from the results %v", got, want)
	}
	return paperGapPct(g), nil
}
