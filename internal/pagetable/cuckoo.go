package pagetable

import (
	"fmt"
	"unsafe"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// Cuckoo implements an elastic cuckoo hash page table (Skarlatos et al.,
// "Elastic Cuckoo Page Tables", ASPLOS 2020) — the paper's ECH baseline.
//
// Translations live in d independent ways (d = 3), each a separate hash
// table. A lookup computes one slot per way and probes all ways *in
// parallel*: WalkInto reports the probes in Walk.Par, and the MMU charges
// the maximum (not the sum) of their memory latencies. This is ECH's
// advantage over the radix walk's four dependent accesses — and its cost
// is d times the PTE memory traffic, which is what NDPage exploits at
// high core counts.
//
// Elastic resizing follows the ECH scheme: when a way's load factor
// crosses the threshold it begins a gradual migration into a table twice
// the size, tracked by a migration pointer. Entries whose old-table slot
// index is below the pointer have been rehashed into the new table, so a
// lookup still needs exactly one probe per way during resizing.
//
// The table covers the simulator's translated domain: VPNs below 2^36
// (the canonical lower half of the 48-bit address space) and PFNs below
// 2^28 (1 TB of physical memory). Map and NewCuckoo panic outside it.
type Cuckoo struct {
	alloc *phys.Allocator
	ways  []*cuckooWay
	salts []uint64
	count uint64

	// member holds one bit per mapped VPN below memberSpan: Present,
	// Lookup's miss path and Map's update-in-place check read one bit
	// instead of probing d random slots.
	member bitset.Paged

	// MigrateStep entries are rehashed per insert while a way resizes.
	migrateStep int
	// threshold is the per-way load factor that triggers a resize.
	threshold float64

	stats CuckooStats
}

// CuckooStats counts structural events.
type CuckooStats struct {
	Inserts  uint64
	Kicks    uint64 // displacement steps
	Resizes  uint64 // gradual resizes begun
	Migrated uint64 // entries moved during gradual resizes
}

// cuckooSlot is one hash-table entry packed into a word: the VPN tag in
// the high vpnBits bits, the PFN in the low pfnBits. It is the host
// copy of the modelled slotBytes-wide PTE, whose size alone sets the
// simulated slot addresses. Occupancy lives outside the slot array in a
// per-way bitmap, so every 64-bit pattern is a valid entry.
type cuckooSlot uint64

// Slot packing: the translated domain the table accepts.
const (
	pfnBits = 28
	vpnBits = 64 - pfnBits
	pfnMask = 1<<pfnBits - 1
)

// CuckooMaxFrames is the most physical frames (1 TB of memory) a
// Cuckoo table's packed slot can name.
const CuckooMaxFrames = 1 << pfnBits

func packSlot(vpn addr.VPN, pfn addr.PFN) cuckooSlot {
	return cuckooSlot(uint64(vpn)<<pfnBits | uint64(pfn))
}

func (s cuckooSlot) vpn() addr.VPN { return addr.VPN(s >> pfnBits) }
func (s cuckooSlot) pfn() addr.PFN { return addr.PFN(s & pfnMask) }

// memberSpan bounds the VPNs the membership bitmap covers: 2^30 pages,
// 4 TB of virtual space, well above any heap the OS model bump-allocates
// from its base. Sparse keys beyond it (scattered test keys) fall back
// to probing the ways, so they cannot inflate the bitmap's directory.
const memberSpan = 1 << 30

// cuckooTab is one hash table (a way's old or new array during gradual
// resizing): the slots, their occupancy bitmap, and the backing frames.
type cuckooTab struct {
	slots  []cuckooSlot
	occ    []uint64 // one bit per slot
	frames []addr.P // one frame per slotsPerFrame slots
	// limit is the largest entry count a way backed by this table holds
	// before maybeResize begins resizing it.
	limit int
}

// full reports whether slot i holds an entry.
func (t *cuckooTab) full(i int) bool { return bitset.TestBit(t.occ, uint64(i)) }

type cuckooWay struct {
	cuckooTab
	count int

	// resize state
	resizing bool
	newTab   cuckooTab
	migPtr   int
}

// slotBytes is the size of one modelled cuckoo PTE slot (VPN tag + PFN
// + flags). It fixes every simulated slot address; the host slot is
// packed narrower.
const slotBytes = 16

// slotsPerFrame is how many modelled slots fit a 4 KB frame.
const slotsPerFrame = addr.PageSize / slotBytes

// NewCuckoo builds an ECH table with the given initial slots per way
// (rounded up to a power of two; minimum one frame's worth). It panics
// on an allocator whose frames a packed slot cannot name.
func NewCuckoo(alloc *phys.Allocator, initialSlots int) *Cuckoo {
	return newCuckoo(alloc, initialSlots, 0.6)
}

// newCuckoo is NewCuckoo with the per-way resize threshold as a
// parameter; tests raise it to reach displacement failures and the
// forced resizes they trigger.
func newCuckoo(alloc *phys.Allocator, initialSlots int, threshold float64) *Cuckoo {
	if alloc.TotalFrames() > CuckooMaxFrames {
		panic(fmt.Sprintf("pagetable: cuckoo table addresses at most 2^%d frames, allocator has %d",
			pfnBits, alloc.TotalFrames()))
	}
	size := slotsPerFrame
	for size < initialSlots {
		size *= 2
	}
	c := &Cuckoo{
		alloc:       alloc,
		salts:       []uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9},
		migrateStep: 8,
		threshold:   threshold,
	}
	for range c.salts {
		c.ways = append(c.ways, c.newWay(size))
	}
	return c
}

// Kind implements Table.
func (c *Cuckoo) Kind() string { return "cuckoo" }

// Stats returns a copy of the structural counters.
func (c *Cuckoo) Stats() CuckooStats { return c.stats }

func (c *Cuckoo) newWay(size int) *cuckooWay {
	return &cuckooWay{cuckooTab: c.newTab(size)}
}

// newTab builds one hash table of size slots.
func (c *Cuckoo) newTab(size int) cuckooTab {
	return cuckooTab{
		slots:  make([]cuckooSlot, size),
		occ:    make([]uint64, bitset.WordsFor(uint64(size))),
		frames: c.allocFrames(size),
		// The largest n with !(float64(n) > threshold*size).
		limit: int(c.threshold * float64(size)),
	}
}

func (c *Cuckoo) allocFrames(slots int) []addr.P {
	n := (slots + slotsPerFrame - 1) / slotsPerFrame
	frames := make([]addr.P, n)
	for i := range frames {
		pfn, ok := c.alloc.AllocFrame()
		if !ok {
			panic(fmt.Errorf("pagetable: cuckoo way: %w", phys.ErrOutOfMemory))
		}
		frames[i] = pfn.Addr()
	}
	return frames
}

// hash returns way w's hash of vpn; a table of size slots uses its low
// log2(size) bits, so a way's old and new tables share one hash.
func (c *Cuckoo) hash(w int, vpn addr.VPN) int {
	return int(xrand.Hash64(uint64(vpn) ^ c.salts[w]))
}

// slotPA returns the physical address of slot i given the backing frames.
func slotPA(frames []addr.P, i int) addr.P {
	return frames[i/slotsPerFrame] + addr.P((i%slotsPerFrame)*slotBytes)
}

// probe resolves where a lookup for vpn lands in way w: the table (old,
// or new during gradual resizing) and the slot index.
func (c *Cuckoo) probe(w int, vpn addr.VPN) (tab *cuckooTab, idx int) {
	way := c.ways[w]
	h := c.hash(w, vpn)
	if hOld := h & (len(way.slots) - 1); !way.resizing || hOld >= way.migPtr {
		return &way.cuckooTab, hOld
	}
	return &way.newTab, h & (len(way.newTab.slots) - 1)
}

// find probes the d ways for vpn's slot, returning its way, table and
// index (tab is nil when vpn is not mapped).
func (c *Cuckoo) find(vpn addr.VPN) (w int, tab *cuckooTab, idx int) {
	for w := range c.ways {
		tab, idx := c.probe(w, vpn)
		if tab.full(idx) && tab.slots[idx].vpn() == vpn {
			return w, tab, idx
		}
	}
	return 0, nil, 0
}

// ruledOut reports whether the membership bitmap shows vpn unmapped
// without a probe.
func (c *Cuckoo) ruledOut(vpn addr.VPN) bool {
	return vpn < memberSpan && !c.member.Get(uint64(vpn))
}

// Lookup implements Table.
func (c *Cuckoo) Lookup(vpn addr.VPN) (Entry, bool) {
	if c.ruledOut(vpn) {
		return Entry{}, false
	}
	if _, tab, idx := c.find(vpn); tab != nil {
		return Entry{PFN: tab.slots[idx].pfn()}, true
	}
	return Entry{}, false
}

// Present implements Table: the demand-paging fast predicate, one bit
// of the membership bitmap (a d-way probe for VPNs beyond memberSpan).
func (c *Cuckoo) Present(vpn addr.VPN) bool {
	if vpn < memberSpan {
		return c.member.Get(uint64(vpn))
	}
	_, tab, _ := c.find(vpn)
	return tab != nil
}

// WalkInto implements Table: d parallel probes, one per way.
func (c *Cuckoo) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	vpn := v.Page()
	for way := range c.ways {
		tab, idx := c.probe(way, vpn)
		w.Par = append(w.Par, Access{HashLevel, slotPA(tab.frames, idx)})
		if tab.full(idx) && tab.slots[idx].vpn() == vpn {
			w.Found = true
			w.Entry = Entry{PFN: tab.slots[idx].pfn()}
			w.FoundIdx = way
		}
	}
}

// Map implements Table. It panics on a VPN or PFN outside the packed
// slot's domain.
func (c *Cuckoo) Map(vpn addr.VPN, pfn addr.PFN) {
	if uint64(vpn)>>vpnBits|uint64(pfn)>>pfnBits != 0 {
		panic(fmt.Sprintf("pagetable: cuckoo mapping %#x -> %#x outside the table's domain (VPN < 2^%d, PFN < 2^%d)",
			uint64(vpn), uint64(pfn), vpnBits, pfnBits))
	}
	c.stats.Inserts++
	// Update in place if present.
	if !c.ruledOut(vpn) {
		if _, tab, idx := c.find(vpn); tab != nil {
			tab.slots[idx] = packSlot(vpn, pfn)
			return
		}
	}
	if vpn < memberSpan {
		c.member.Set(uint64(vpn))
	}
	c.advanceMigrations()
	c.insert(packSlot(vpn, pfn), 0)
	c.count++
	c.maybeResize()
}

// insert places cur using cuckoo displacement, starting the way search
// at the way its VPN selects. attempts bounds forced-resize recursion.
func (c *Cuckoo) insert(cur cuckooSlot, attempts int) {
	if attempts > 8 {
		panic("pagetable: cuckoo insertion failed after repeated resizes")
	}
	w := int(uint64(cur.vpn())) % len(c.ways)
	const maxKicks = 32
	for kick := 0; kick < maxKicks; kick++ {
		tab, idx := c.probe(w, cur.vpn())
		if bitset.SetBit(tab.occ, uint64(idx)) {
			tab.slots[idx] = cur
			c.ways[w].count++
			return
		}
		// Displace the occupant and move it to the next way.
		tab.slots[idx], cur = cur, tab.slots[idx]
		c.stats.Kicks++
		w = (w + 1) % len(c.ways)
	}
	// Displacement path exhausted: force a resize of the fullest way
	// and retry with the still-homeless entry.
	c.forceResize()
	c.advanceMigrations()
	c.insert(cur, attempts+1)
}

// MapRange implements Table.
func (c *Cuckoo) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for k := uint64(0); k < count; k++ {
		c.Map(vpn+addr.VPN(k), base+addr.PFN(k))
	}
}

// MapHuge implements Table. The ECH design keeps separate per-page-size
// hash tables; this reproduction pairs the Huge Page mechanism with the
// radix table instead, so huge mappings are not supported here.
func (c *Cuckoo) MapHuge(vpn addr.VPN, base addr.PFN) {
	panic("pagetable: cuckoo table does not support huge mappings (use Radix.MapHuge)")
}

// Unmap implements Table.
func (c *Cuckoo) Unmap(vpn addr.VPN) (Entry, bool) {
	if c.ruledOut(vpn) {
		return Entry{}, false
	}
	w, tab, idx := c.find(vpn)
	if tab == nil {
		return Entry{}, false
	}
	e := Entry{PFN: tab.slots[idx].pfn()}
	tab.slots[idx] = 0
	bitset.ClearBit(tab.occ, uint64(idx))
	c.member.Clear(uint64(vpn))
	c.ways[w].count--
	c.count--
	return e, true
}

// maybeResize begins a gradual resize of any way whose load factor
// crossed the threshold.
func (c *Cuckoo) maybeResize() {
	for _, way := range c.ways {
		if !way.resizing && way.count > way.limit {
			c.beginResize(way)
		}
	}
}

// forceResize doubles the fullest non-resizing way (insertion pressure
// relief when displacement fails).
func (c *Cuckoo) forceResize() {
	var target *cuckooWay
	best := -1.0
	for _, way := range c.ways {
		if way.resizing {
			continue
		}
		lf := float64(way.count) / float64(len(way.slots))
		if lf > best {
			best, target = lf, way
		}
	}
	if target == nil {
		// Every way is already resizing; push all migrations to
		// completion to free up space.
		for w, way := range c.ways {
			for way.resizing {
				c.migrate(w, len(way.slots))
			}
		}
		return
	}
	c.beginResize(target)
}

func (c *Cuckoo) beginResize(way *cuckooWay) {
	way.resizing = true
	way.newTab = c.newTab(2 * len(way.slots))
	way.migPtr = 0
	c.stats.Resizes++
}

// advanceMigrations moves migrateStep entries per resizing way.
func (c *Cuckoo) advanceMigrations() {
	for w, way := range c.ways {
		if way.resizing {
			c.migrate(w, c.migrateStep)
		}
	}
}

// migrate rehashes up to n old-table slots of way w into its new table.
func (c *Cuckoo) migrate(w, n int) {
	way := c.ways[w]
	for i := 0; i < n && way.migPtr < len(way.slots); i++ {
		i0 := way.migPtr
		s := way.slots[i0]
		way.migPtr++
		if !way.full(i0) {
			continue
		}
		hNew := c.hash(w, s.vpn()) & (len(way.newTab.slots) - 1)
		if !bitset.SetBit(way.newTab.occ, uint64(hNew)) {
			// New-slot collision: bounce the entry through the
			// regular insertion path (it may land in another way).
			way.count--
			c.insert(s, 0)
		} else {
			way.newTab.slots[hNew] = s
		}
		c.stats.Migrated++
	}
	if way.migPtr >= len(way.slots) {
		// Migration complete: retire the old table.
		for _, f := range way.frames {
			c.alloc.Free(f.Page())
		}
		way.cuckooTab = way.newTab
		way.newTab = cuckooTab{}
		way.resizing = false
	}
}

// Occupancy implements Table: one pseudo-level row describing overall
// hash-table load.
func (c *Cuckoo) Occupancy() []LevelOccupancy {
	var capacity uint64
	for _, way := range c.ways {
		capacity += uint64(len(way.slots))
		if way.resizing {
			capacity += uint64(len(way.newTab.slots))
		}
	}
	return []LevelOccupancy{{
		Level:       HashLevel,
		Nodes:       uint64(len(c.ways)),
		EntriesUsed: c.count,
		Capacity:    capacity,
	}}
}

// MappedPages implements Table.
func (c *Cuckoo) MappedPages() uint64 { return c.count }

// MetadataBytes implements Table: the slot arrays, their occupancy
// bitmaps, and backing-frame directories of every way (old and new
// tables both, during gradual resizing), plus the membership bitmap.
func (c *Cuckoo) MetadataBytes() uint64 {
	tab := func(t *cuckooTab) uint64 {
		return uint64(len(t.slots))*uint64(unsafe.Sizeof(cuckooSlot(0))) +
			uint64(len(t.occ))*8 + uint64(len(t.frames))*8
	}
	total := c.member.Bytes()
	for _, way := range c.ways {
		total += tab(&way.cuckooTab)
		if way.resizing {
			total += tab(&way.newTab)
		}
	}
	return total
}

// LoadFactors returns the per-way load factors, for tests and reports.
func (c *Cuckoo) LoadFactors() []float64 {
	out := make([]float64, len(c.ways))
	for i, way := range c.ways {
		size := len(way.slots)
		if way.resizing {
			size += len(way.newTab.slots)
		}
		out[i] = float64(way.count) / float64(size)
	}
	return out
}

// String summarizes the table state.
func (c *Cuckoo) String() string {
	return fmt.Sprintf("cuckoo{d=%d, entries=%d, resizes=%d}", len(c.ways), c.count, c.stats.Resizes)
}
