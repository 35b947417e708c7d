// The binary min-heap queue behind UseHeapFallback: the test oracle for
// the calendar wheel. Its dispatch order is (time, actor, seq) by
// construction, so the differential tests require randomized schedules
// to dispatch identically through both queues. Each dispatch costs
// O(log n) sift operations; simulations run on the wheel, which is
// faster on many-core machines (DESIGN.md §3c).
package engine

// heapPush inserts ev and restores the heap property.
func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	e.up(len(e.heap) - 1)
}

// heapStep dispatches the earliest pending event from the fallback
// heap. It returns false when the queue is empty.
func (e *Engine) heapStep() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap[last] = event{} // drop the vacated slot's Actor reference
	e.heap = e.heap[:last]
	if last > 0 {
		e.down(0)
	}
	e.now = ev.time
	e.dispatched++
	ev.target.OnEvent(ev.time, ev.kind, ev.payload)
	return true
}

// up restores the heap property from leaf i toward the root.
func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heap[i].before(&e.heap[parent]) {
			return
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// down restores the heap property from node i toward the leaves.
func (e *Engine) down(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && e.heap[l].before(&e.heap[least]) {
			least = l
		}
		if r < n && e.heap[r].before(&e.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		e.heap[i], e.heap[least] = e.heap[least], e.heap[i]
		i = least
	}
}
