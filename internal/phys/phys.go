// Package phys models physical memory as a buddy allocator over 4 KB
// frames with a maximum order of 2 MB (the x86-64 huge-page size).
//
// The allocator serves two roles in the simulator:
//
//  1. It hands out frames for demand paging, so virtual-to-physical
//     mappings are realistic (scattered, allocation-order dependent)
//     rather than identity mappings.
//  2. It is the substrate for the Huge Page mechanism's failure mode: the
//     paper observes (Section VII-B) that at 8 cores Huge Page performs
//     *worse* than the Radix baseline because physical-memory contiguity
//     is rapidly consumed. InjectFragmentation seeds the background
//     fragmentation that, combined with multi-core demand, exhausts
//     intact 2 MB blocks and forces 4 KB fallbacks.
//
// Determinism: free blocks are managed as LIFO stacks with lazy deletion,
// so allocation order is a pure function of the call sequence and the
// injected RNG — no map-iteration nondeterminism.
package phys

import (
	"errors"
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/xrand"
)

// ErrOutOfMemory reports that physical memory is exhausted. The OS
// model and the page tables allocate deep inside machine construction,
// where threading an error through every Map would touch the hot path,
// so they panic with an error wrapping ErrOutOfMemory instead; sim.New
// recovers exactly that panic value into an ordinary error. Every other
// panic in those packages is an internal invariant.
var ErrOutOfMemory = errors.New("out of physical memory")

// MaxOrder is the largest buddy order: order 9 blocks are 512 frames,
// i.e. one 2 MB huge page.
const MaxOrder = addr.HugePageShift - addr.PageShift // 9

// Stats summarizes allocator activity.
type Stats struct {
	FrameAllocs     uint64 // successful 4 KB allocations
	HugeAllocs      uint64 // successful 2 MB allocations
	HugeFailures    uint64 // 2 MB allocations that found no intact block
	Frees           uint64 // blocks returned
	FragmentFrames  uint64 // frames consumed by injected background fragmentation
	AllocatedFrames uint64 // frames currently allocated (incl. fragmentation)
}

// Allocator is a buddy allocator over a fixed number of physical frames.
// It is not safe for concurrent use; the simulator is single-threaded.
type Allocator struct {
	totalFrames uint64
	// free[o] is a LIFO stack of candidate block starts at order o.
	// Entries may be stale; freeOrder is the source of truth.
	free [MaxOrder + 1][]uint64
	// freeOrder maps a block start to its order iff the block is free.
	freeOrder map[uint64]int
	// allocOrder maps a block start to its order iff the block is
	// allocated (needed by Free to know how much to return).
	allocOrder map[uint64]int
	// hugeFree counts free blocks of exactly MaxOrder, maintained
	// incrementally so the OS model can read contiguity pressure on
	// every fault without scanning.
	hugeFree int
	stats    Stats
}

// New returns an allocator managing totalBytes of physical memory.
// totalBytes must be a positive multiple of the huge-page size.
func New(totalBytes uint64) *Allocator {
	if totalBytes == 0 || totalBytes%addr.HugePageSize != 0 {
		panic(fmt.Sprintf("phys: total memory %d is not a positive multiple of 2 MB", totalBytes))
	}
	a := &Allocator{
		totalFrames: totalBytes / addr.PageSize,
		freeOrder:   make(map[uint64]int),
		allocOrder:  make(map[uint64]int),
	}
	for start := uint64(0); start < a.totalFrames; start += 1 << MaxOrder {
		a.push(start, MaxOrder)
	}
	return a
}

// TotalFrames returns the number of 4 KB frames managed.
func (a *Allocator) TotalFrames() uint64 { return a.totalFrames }

// FreeFrames returns the number of currently free 4 KB frames.
func (a *Allocator) FreeFrames() uint64 {
	return a.totalFrames - a.stats.AllocatedFrames
}

// Stats returns a copy of the allocator's counters.
func (a *Allocator) Stats() Stats { return a.stats }

// IntactHugeBlocks returns how many free 2 MB blocks exist, i.e. how many
// more huge pages could be allocated right now. O(1).
func (a *Allocator) IntactHugeBlocks() int { return a.hugeFree }

// TotalHugeBlocks returns the machine's total 2 MB block capacity.
func (a *Allocator) TotalHugeBlocks() int {
	return int(a.totalFrames >> MaxOrder)
}

// ContiguityRatio returns IntactHugeBlocks/TotalHugeBlocks — the signal
// the OS model reads as transparent-huge-page allocation pressure.
func (a *Allocator) ContiguityRatio() float64 {
	return float64(a.hugeFree) / float64(a.TotalHugeBlocks())
}

func (a *Allocator) push(start uint64, order int) {
	a.free[order] = append(a.free[order], start)
	a.freeOrder[start] = order
	if order == MaxOrder {
		a.hugeFree++
	}
}

// removeFree drops a block from the free set (lazy stack entries are
// skipped later), maintaining the huge-block counter.
func (a *Allocator) removeFree(start uint64, order int) {
	delete(a.freeOrder, start)
	if order == MaxOrder {
		a.hugeFree--
	}
}

// pop returns a valid free block of exactly the given order, skipping
// stale stack entries, or false if none exists.
func (a *Allocator) pop(order int) (uint64, bool) {
	stack := a.free[order]
	for len(stack) > 0 {
		start := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o, ok := a.freeOrder[start]; ok && o == order {
			a.removeFree(start, order)
			a.free[order] = stack
			return start, true
		}
	}
	a.free[order] = stack
	return 0, false
}

// AllocOrder allocates a block of 2^order frames, splitting larger blocks
// as needed. It returns the first frame of the block and whether the
// allocation succeeded.
func (a *Allocator) AllocOrder(order int) (addr.PFN, bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("phys: invalid order %d", order))
	}
	for o := order; o <= MaxOrder; o++ {
		start, ok := a.pop(o)
		if !ok {
			continue
		}
		// Split down to the requested order, returning the upper
		// halves to the free lists.
		for o > order {
			o--
			a.push(start+1<<o, o)
		}
		a.allocOrder[start] = order
		a.stats.AllocatedFrames += 1 << order
		return addr.PFN(start), true
	}
	return 0, false
}

// AllocFrame allocates a single 4 KB frame.
func (a *Allocator) AllocFrame() (addr.PFN, bool) {
	pfn, ok := a.AllocOrder(0)
	if ok {
		a.stats.FrameAllocs++
	}
	return pfn, ok
}

// AllocHuge allocates one 2 MB-aligned block of 512 frames. Failure means
// physical contiguity is exhausted; callers (the OS memory manager) fall
// back to 4 KB pages, reproducing the paper's Huge Page degradation.
func (a *Allocator) AllocHuge() (addr.PFN, bool) {
	pfn, ok := a.AllocOrder(MaxOrder)
	if ok {
		a.stats.HugeAllocs++
	} else {
		a.stats.HugeFailures++
	}
	return pfn, ok
}

// Free returns a previously allocated block (identified by its first
// frame) and coalesces buddies. Freeing an unallocated address panics:
// it is a simulator bug, not a recoverable condition.
func (a *Allocator) Free(pfn addr.PFN) {
	start := uint64(pfn)
	order, ok := a.allocOrder[start]
	if !ok {
		panic(fmt.Sprintf("phys: Free of unallocated frame %#x", start))
	}
	delete(a.allocOrder, start)
	a.stats.AllocatedFrames -= 1 << order
	a.stats.Frees++
	// Coalesce with free buddies as far as possible.
	for order < MaxOrder {
		buddy := start ^ (1 << order)
		if o, free := a.freeOrder[buddy]; !free || o != order {
			break
		}
		a.removeFree(buddy, order) // lazy deletion from the stack
		if buddy < start {
			start = buddy
		}
		order++
	}
	a.push(start, order)
}

// AllocAt carves out the specific frame pfn, splitting whatever free block
// contains it. It returns false if the frame is already allocated. It is
// used by fragmentation injection to punch holes at chosen positions,
// which a plain buddy allocator would never do on its own.
func (a *Allocator) AllocAt(pfn addr.PFN) bool {
	frame := uint64(pfn)
	if frame >= a.totalFrames {
		return false
	}
	// Find the free block containing the frame.
	for o := 0; o <= MaxOrder; o++ {
		start := frame &^ (1<<o - 1)
		fo, ok := a.freeOrder[start]
		if !ok || fo != o {
			continue
		}
		a.removeFree(start, o)
		// Split repeatedly, keeping the half containing frame.
		for o > 0 {
			o--
			lower, upper := start, start+1<<o
			if frame >= upper {
				a.push(lower, o)
				start = upper
			} else {
				a.push(upper, o)
			}
		}
		a.allocOrder[frame] = 0
		a.stats.AllocatedFrames++
		return true
	}
	return false
}

// InjectFragmentation punches `holes` runs of `runLen` consecutive 4 KB
// frames at pseudo-random positions, modelling long-running background
// allocation that has broken up physical contiguity before the workload
// starts. It returns the number of frames actually claimed (positions
// already occupied are skipped, not retried).
func (a *Allocator) InjectFragmentation(rng *xrand.RNG, holes, runLen int) int {
	if runLen <= 0 {
		runLen = 1
	}
	claimed := 0
	for i := 0; i < holes; i++ {
		base := rng.Uint64n(a.totalFrames)
		for j := 0; j < runLen; j++ {
			f := base + uint64(j)
			if f >= a.totalFrames {
				break
			}
			if a.AllocAt(addr.PFN(f)) {
				claimed++
			}
		}
	}
	a.stats.FragmentFrames += uint64(claimed)
	return claimed
}
