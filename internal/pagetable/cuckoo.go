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
type Cuckoo struct {
	alloc *phys.Allocator
	ways  []*cuckooWay
	salts []uint64
	count uint64

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

// cuckooSlot is one hash-table entry: exactly slotBytes wide, matching
// the modelled PTE. Occupancy lives outside the slot array in a per-way
// bitmap, so the slot stays two words and a lookup's emptiness test
// reads bit-packed metadata instead of a padded bool per slot.
type cuckooSlot struct {
	vpn addr.VPN
	pfn addr.PFN
}

// cuckooTab is one hash table (a way's old or new array during gradual
// resizing): the slots, their occupancy bitmap, and the backing frames.
type cuckooTab struct {
	slots  []cuckooSlot
	occ    []uint64 // one bit per slot
	frames []addr.P // one frame per slotsPerFrame slots
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

// slotsPerFrame is how many 16-byte slots fit a 4 KB frame.
const slotsPerFrame = addr.PageSize / 16

// slotBytes is the size of one cuckoo PTE slot (VPN tag + PFN + flags).
const slotBytes = 16

// NewCuckoo builds an ECH table with the given initial slots per way
// (rounded up to a power of two; minimum one frame's worth).
func NewCuckoo(alloc *phys.Allocator, initialSlots int) *Cuckoo {
	size := slotsPerFrame
	for size < initialSlots {
		size *= 2
	}
	c := &Cuckoo{
		alloc:       alloc,
		salts:       []uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9},
		migrateStep: 8,
		threshold:   0.6,
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

func (c *Cuckoo) hash(w int, vpn addr.VPN, size int) int {
	return int(xrand.Hash64(uint64(vpn)^c.salts[w])) & (size - 1)
}

// slotPA returns the physical address of slot i given the backing frames.
func slotPA(frames []addr.P, i int) addr.P {
	return frames[i/slotsPerFrame] + addr.P((i%slotsPerFrame)*slotBytes)
}

// probe resolves where a lookup for vpn lands in way w: the table (old,
// or new during gradual resizing), the slot index, and the slot's
// physical address.
func (c *Cuckoo) probe(w int, vpn addr.VPN) (tab *cuckooTab, idx int, pa addr.P) {
	way := c.ways[w]
	hOld := c.hash(w, vpn, len(way.slots))
	if way.resizing && hOld < way.migPtr {
		hNew := c.hash(w, vpn, len(way.newTab.slots))
		return &way.newTab, hNew, slotPA(way.newTab.frames, hNew)
	}
	return &way.cuckooTab, hOld, slotPA(way.frames, hOld)
}

// Lookup implements Table.
func (c *Cuckoo) Lookup(vpn addr.VPN) (Entry, bool) {
	for w := range c.ways {
		tab, idx, _ := c.probe(w, vpn)
		if tab.full(idx) && tab.slots[idx].vpn == vpn {
			return Entry{PFN: tab.slots[idx].pfn}, true
		}
	}
	return Entry{}, false
}

// Present implements Table: the demand-paging fast predicate. The probe
// already tags each slot with its VPN, so presence is the same d-way
// probe without constructing an Entry.
func (c *Cuckoo) Present(vpn addr.VPN) bool {
	for w := range c.ways {
		tab, idx, _ := c.probe(w, vpn)
		if tab.full(idx) && tab.slots[idx].vpn == vpn {
			return true
		}
	}
	return false
}

// WalkInto implements Table: d parallel probes, one per way.
func (c *Cuckoo) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	vpn := v.Page()
	for way := range c.ways {
		tab, idx, pa := c.probe(way, vpn)
		w.Par = append(w.Par, Access{HashLevel, pa})
		if tab.full(idx) && tab.slots[idx].vpn == vpn {
			w.Found = true
			w.Entry = Entry{PFN: tab.slots[idx].pfn}
			w.FoundIdx = way
		}
	}
}

// Map implements Table.
func (c *Cuckoo) Map(vpn addr.VPN, pfn addr.PFN) {
	c.stats.Inserts++
	// Update in place if present.
	for w := range c.ways {
		tab, idx, _ := c.probe(w, vpn)
		if tab.full(idx) && tab.slots[idx].vpn == vpn {
			tab.slots[idx].pfn = pfn
			return
		}
	}
	c.advanceMigrations()
	c.insert(vpn, pfn, 0)
	c.count++
	c.maybeResize()
}

// insert places (vpn,pfn) using cuckoo displacement, starting the way
// search at startWay. attempts bounds forced-resize recursion.
func (c *Cuckoo) insert(vpn addr.VPN, pfn addr.PFN, attempts int) {
	if attempts > 8 {
		panic("pagetable: cuckoo insertion failed after repeated resizes")
	}
	cur := cuckooSlot{vpn: vpn, pfn: pfn}
	w := int(uint64(vpn)) % len(c.ways)
	const maxKicks = 32
	for kick := 0; kick < maxKicks; kick++ {
		tab, idx, _ := c.probe(w, cur.vpn)
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
	c.insert(cur.vpn, cur.pfn, attempts+1)
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
	for w := range c.ways {
		tab, idx, _ := c.probe(w, vpn)
		if tab.full(idx) && tab.slots[idx].vpn == vpn {
			e := Entry{PFN: tab.slots[idx].pfn}
			tab.slots[idx] = cuckooSlot{}
			bitset.ClearBit(tab.occ, uint64(idx))
			c.ways[w].count--
			c.count--
			return e, true
		}
	}
	return Entry{}, false
}

// maybeResize begins a gradual resize of any way whose load factor
// crossed the threshold.
func (c *Cuckoo) maybeResize() {
	for _, way := range c.ways {
		if !way.resizing && float64(way.count) > c.threshold*float64(len(way.slots)) {
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
		for _, way := range c.ways {
			for way.resizing {
				c.migrate(way, len(way.slots))
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
	for _, way := range c.ways {
		if way.resizing {
			c.migrate(way, c.migrateStep)
		}
	}
}

// migrate rehashes up to n old-table slots of way into its new table.
func (c *Cuckoo) migrate(way *cuckooWay, n int) {
	w := c.wayIndex(way)
	for i := 0; i < n && way.migPtr < len(way.slots); i++ {
		i0 := way.migPtr
		s := way.slots[i0]
		way.migPtr++
		if !way.full(i0) {
			continue
		}
		hNew := c.hash(w, s.vpn, len(way.newTab.slots))
		if !bitset.SetBit(way.newTab.occ, uint64(hNew)) {
			// New-slot collision: bounce the entry through the
			// regular insertion path (it may land in another way).
			way.count--
			c.insert(s.vpn, s.pfn, 0)
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

func (c *Cuckoo) wayIndex(way *cuckooWay) int {
	for i, w := range c.ways {
		if w == way {
			return i
		}
	}
	panic("pagetable: unknown cuckoo way")
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
// tables both, during gradual resizing).
func (c *Cuckoo) MetadataBytes() uint64 {
	tab := func(t *cuckooTab) uint64 {
		return uint64(len(t.slots))*uint64(unsafe.Sizeof(cuckooSlot{})) +
			uint64(len(t.occ))*8 + uint64(len(t.frames))*8
	}
	var total uint64
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
