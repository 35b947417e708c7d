package engine

import "testing"

// tickActor is BenchmarkEngineStep's typed actor: every delivered event
// reschedules itself with a deterministic, actor-dependent stride until
// the budget is spent — the schedule+dispatch pattern the engine
// performs once per simulated instruction.
type tickActor struct {
	eng       *Engine
	id        int
	remaining *int
}

func (a *tickActor) OnEvent(now uint64, kind uint8, payload uint64) {
	if *a.remaining <= 0 {
		return
	}
	*a.remaining--
	a.eng.Schedule(now+uint64(7+a.id%13), a.id, a, 0, 0)
}

// BenchmarkEngineStep measures the event queue itself: typed-event
// schedule+dispatch operations per second with a machine-sized actor
// population (64 actors, as on the largest NDP configurations).
func BenchmarkEngineStep(b *testing.B) {
	b.ReportAllocs()
	const actors = 64
	eng := New()
	remaining := b.N
	ticks := make([]tickActor, actors)
	for i := range ticks {
		ticks[i] = tickActor{eng: eng, id: i, remaining: &remaining}
	}
	b.ResetTimer()
	for i := range ticks {
		eng.Schedule(uint64(i), i, &ticks[i], 0, 0)
	}
	eng.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
