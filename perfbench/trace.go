package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a pass, one
// configuration inside it, that configuration's sim.New ("setup") and
// Machine.Run ("run") calls, or one layer replay. Parent is the span
// that caused it (0 for none); spans of one configuration share its
// config span as parent.
type span struct {
	ID, Parent int
	Name       string
	Lane       int // sweep worker slot, 0 outside the workers
	Desc       string
	Start, End time.Time
}

// tracer keeps a traced run's spans in memory until the run writes
// them out. A nil tracer records nothing, so untraced passes share the
// traced code path at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(name string, lane, parent int, desc string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Desc: desc, Start: time.Now()})
	return len(t.spans)
}

// close ends the span opened with id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Now()
}

// record adds a finished span.
func (t *tracer) record(name string, lane, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Start: start, End: end})
}

// busy sums the durations of the named spans.
func (t *tracer) busy(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, one thread row per lane), loadable in Perfetto or
// chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "desc": s.Desc},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
