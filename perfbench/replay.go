package main

import (
	"fmt"
	"sort"
	"time"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/engine"
	"ndpage/internal/osmm"
	"ndpage/internal/resource"
	"ndpage/internal/sim"
	"ndpage/internal/workload"
	"ndpage/internal/xrand"
)

// replayOps is how many generator ops each replay draws.
const replayOps = 1 << 16

// replayReps repeats each timed replay loop; the median is reported.
const replayReps = 5

// regionMem hands a second instance of a workload the dataset regions
// sim.New's own instance reserved, in allocation order, so the second
// instance's generator emits addresses inside the machine's dataset.
type regionMem struct {
	regions []osmm.Region
	next    int
	err     error
}

func (r *regionMem) take(size uint64, name string) addr.V {
	for r.next < len(r.regions) {
		reg := r.regions[r.next]
		r.next++
		if reg.Name == name && reg.Size >= size {
			return reg.Base
		}
	}
	if r.err == nil {
		r.err = fmt.Errorf("replay: the machine has no region %q of %d bytes", name, size)
	}
	return 0
}

func (r *regionMem) Alloc(size uint64, name string) addr.V     { return r.take(size, name) }
func (r *regionMem) AllocLazy(size uint64, name string) addr.V { return r.take(size, name) }

// medianNS times reps runs of f over n calls each and returns the
// median ns per call.
func medianNS(reps, n int, f func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t := time.Now()
		f()
		ns[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	sort.Float64s(ns)
	return ns[reps/2]
}

// replays times single calls into each layer's public functions, on a
// machine sim.New built for the probe cell and on ops drawn from the
// probe workload's own seeded generator. It returns ns per call by
// metric name.
func replays(cfg sim.Config, tr *tracer) (map[string]float64, error) {
	parent := tr.open("replays", 0, 0, cfg.Desc())
	defer tr.close(parent)
	step := func(name string, f func()) {
		s := tr.open(name, 0, parent, "")
		f()
		tr.close(s)
	}

	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	cfg = m.Config()
	spec, err := workload.Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	mem := &regionMem{regions: m.Space().Regions()}
	w := spec.New()
	w.Init(mem, xrand.New(cfg.Seed), cfg.FootprintBytes, cfg.Cores)
	if mem.err != nil {
		return nil, mem.err
	}
	gen := w.Thread(0, cfg.Seed)
	out := map[string]float64{}

	ops := make([]workload.Op, replayOps)
	step("workload.next", func() {
		out["workload.next_ns"] = medianNS(replayReps, len(ops), func() {
			for i := range ops {
				gen.Next(&ops[i])
			}
		})
	})
	var vas []addr.V
	var kinds []access.Op
	var deltas []uint64 // inter-op gaps: compute cycles, 1 per memory op
	for _, op := range ops {
		switch op.Kind {
		case workload.Load, workload.Store:
			kind := access.Read
			if op.Kind == workload.Store {
				kind = access.Write
			}
			vas = append(vas, op.Addr)
			kinds = append(kinds, kind)
			deltas = append(deltas, 1)
		default:
			deltas = append(deltas, uint64(op.Cycles)+1)
		}
	}
	if len(vas) == 0 {
		return nil, fmt.Errorf("replay: %s generated no memory ops", cfg.Workload)
	}

	// One pass: the first touches of a demand-paged machine fault.
	step("osmm.touch", func() {
		space := m.Space()
		out["osmm.touch_ns"] = medianNS(1, len(vas), func() {
			for _, v := range vas {
				space.Touch(v)
			}
		})
	})

	pas := make([]addr.P, len(vas))
	step("core.translate", func() {
		mmu := m.MMU(0)
		var now uint64
		out["core.translate_ns"] = medianNS(replayReps, len(vas), func() {
			for i, v := range vas {
				pas[i], now = mmu.Translate(now, v, kinds[i])
			}
		})
	})

	h := m.Hierarchy()
	step("memsys.access", func() {
		var now uint64
		out["memsys.access_ns"] = medianNS(replayReps, len(pas), func() {
			for i, pa := range pas {
				now = h.Access(0, now, pa, kinds[i], access.Data)
			}
		})
	})

	step("dram.access", func() {
		d := h.DRAM()
		var now uint64
		out["dram.access_ns"] = medianNS(replayReps, len(pas), func() {
			for i, pa := range pas {
				now = d.Access(now, pa, kinds[i], access.Data)
			}
		})
	})

	step("resource.reserve", func() {
		dur := h.DRAM().Config().Transfer
		var slots resource.Slots
		out["resource.reserve_ns"] = medianNS(replayReps, len(deltas), func() {
			slots.Reset()
			var now uint64
			for _, d := range deltas {
				now += d
				slots.Reserve(now, dur)
			}
		})
	})

	step("engine.event", func() {
		// One actor per in-flight op slot (cores x MLP), each
		// rescheduling itself by the op stream's gaps: the engine's
		// closed-loop load in the simulator.
		actors := cfg.Cores * cfg.MLP
		out["engine.event_ns"] = medianNS(replayReps, len(deltas), func() {
			e := engine.New()
			loop := &replayLoop{e: e, deltas: deltas, left: len(deltas) - actors}
			for a := 0; a < actors; a++ {
				e.Schedule(deltas[a%len(deltas)], a, loop, 0, uint64(a))
			}
			e.Run()
		})
	})
	return out, nil
}

// replayLoop is the engine replay's actor: each dispatched event
// schedules the same actor's next one until the budget runs out.
type replayLoop struct {
	e      *engine.Engine
	deltas []uint64
	pos    int
	left   int
}

func (l *replayLoop) OnEvent(now uint64, _ uint8, payload uint64) {
	if l.left <= 0 {
		return
	}
	l.left--
	l.e.Schedule(now+l.deltas[l.pos], int(payload), l, 0, payload)
	l.pos++
}
