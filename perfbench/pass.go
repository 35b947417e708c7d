package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"ndpage/internal/sim"
	"ndpage/internal/stats"
	"ndpage/internal/sweep"
)

// passResult is one pass of a workload through the sweep path.
type passResult struct {
	// wall is the whole pass: sweep dispatch, every configuration's
	// set-up and run, and (figure workload) the table build.
	wall time.Duration
	// setup and run sum the host time inside sim.New and Machine.Run
	// over the pass's configurations.
	setup, run time.Duration
	// instr counts simulated instructions, warm-up plus measured, all
	// cores, over the configurations that completed.
	instr uint64
	// attempted and failed count configurations: failed ones returned an
	// error or panicked (the sweep runner recovers panics).
	attempted, failed int
	// results holds the pass's results in plan order (nil where a cell
	// failed); table is the rendered figure (figure workload only).
	results []*sim.Result
	table   *stats.Table
	// err is the pass's first error: a failed cell, or a figure cell
	// outside the plan.
	err error
	// traced marks a pass run with spans and profile labels.
	traced bool
	// peakRSSMB is the process's peak resident set during the pass.
	peakRSSMB float64
}

// instrPerSec is the pass's simulated instructions per host second
// inside Machine.Run.
func (p passResult) instrPerSec() float64 {
	return float64(p.instr) / p.run.Seconds()
}

// pass is the state one pass shares across its sweep workers.
type pass struct {
	// seed is the simulation seed of every cell. The figure path has no
	// seed knob (exp.Runner leaves Config.Seed at its default), so
	// simulate applies it to each cell the figure requests.
	seed   uint64
	figure bool
	want   map[string]bool // plan keys
	lanes  chan int        // free worker slots, for span lanes
	tr     *tracer         // nil on an untraced pass
	parent int             // the pass span

	mu         sync.Mutex
	byKey      map[string]*sim.Result
	setup, run time.Duration
	instr      uint64
	attempted  int
	succeeded  int
	unexpected []string
}

// simulate is the sweep runner's simulation function: sim.New and
// Machine.Run, each timed and, on a traced pass, wrapped in a span and
// a pprof phase label.
func (p *pass) simulate(cfg sim.Config) (*sim.Result, error) {
	key := cfg.Key()
	if p.figure {
		cfg.Seed = p.seed
	}
	lane := <-p.lanes
	defer func() { p.lanes <- lane }()
	p.mu.Lock()
	p.attempted++
	if !p.want[key] {
		p.unexpected = append(p.unexpected, cfg.Desc())
	}
	p.mu.Unlock()

	cfgSpan := p.tr.open("config", lane, p.parent, cfg.Desc())
	defer p.tr.close(cfgSpan)
	t0 := time.Now()
	var m *sim.Machine
	var err error
	p.phase("setup", func() { m, err = sim.New(cfg) })
	t1 := time.Now()
	p.tr.record("setup", lane, cfgSpan, t0, t1)
	if err != nil {
		return nil, err
	}
	var res *sim.Result
	p.phase("run", func() { res = m.Run() })
	t2 := time.Now()
	p.tr.record("run", lane, cfgSpan, t1, t2)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.succeeded++
	p.setup += t1.Sub(t0)
	p.run += t2.Sub(t1)
	p.instr += simulatedInstr(res)
	p.byKey[key] = res
	return res, nil
}

// phase runs f, under a pprof "phase" label on a traced pass.
func (p *pass) phase(name string, f func()) {
	if p.tr == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
}

// simulatedInstr counts a result's simulated instructions: the
// warm-up budget of every core plus the measured window.
func simulatedInstr(res *sim.Result) uint64 {
	return res.Config.Warmup*uint64(res.Config.Cores) + res.Instructions
}

// hookStore is an in-memory sweep store whose Simulate method the
// figure path adopts as its simulation function (exp.Runner hands a
// Store that implements sweep.Simulator its cold runs).
type hookStore struct {
	*sweep.MemStore
	sim func(sim.Config) (*sim.Result, error)
}

func (s hookStore) Simulate(cfg sim.Config) (*sim.Result, error) { return s.sim(cfg) }

// runPass runs one pass of the workload with the given sweep workers.
func runPass(w *workloadDef, tiny bool, seed uint64, workers int, tr *tracer) passResult {
	cfgs, err := w.plan(tiny, seed).Configs()
	if err != nil {
		return passResult{err: err}
	}
	p := &pass{
		seed:   seed,
		figure: w.figure,
		want:   make(map[string]bool, len(cfgs)),
		lanes:  make(chan int, workers),
		tr:     tr,
		byKey:  make(map[string]*sim.Result, len(cfgs)),
	}
	for _, c := range cfgs {
		p.want[c.Key()] = true
	}
	for i := 1; i <= workers; i++ {
		p.lanes <- i
	}
	p.parent = tr.open("pass", 0, 0, w.name)
	var table *stats.Table
	start := time.Now()
	if w.figure {
		r := fig12Scale(tiny).expRunner(workers, hookStore{sweep.NewMemStore(), p.simulate})
		table, err = r.Fig12()
	} else {
		r := &sweep.Runner{Parallel: workers, Simulate: p.simulate}
		_, err = r.Run(context.Background(), cfgs)
	}
	wall := time.Since(start)
	tr.close(p.parent)

	out := passResult{
		wall: wall, setup: p.setup, run: p.run, instr: p.instr,
		attempted: p.attempted, failed: p.attempted - p.succeeded,
		results: make([]*sim.Result, len(cfgs)), table: table, err: err,
		traced: tr != nil,
	}
	for i, c := range cfgs {
		out.results[i] = p.byKey[c.Key()]
	}
	if out.err == nil && len(p.unexpected) > 0 {
		out.err = fmt.Errorf("figure ran cells outside the plan: %v", p.unexpected)
	}
	return out
}
