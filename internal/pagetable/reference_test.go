package pagetable

// This file keeps the pre-bitmap flattened-table layout — eager
// per-node []bool present and pfns arrays — as a test-only reference
// implementation. The production table (flattened.go) stores the same
// function in bit-packed, lazily materialized per-chunk metadata; the
// differential tests below drive both through randomized operation
// sequences and require them to agree entry for entry, walk for walk,
// and in the Occupancy()/MappedPages() counts.

import (
	"fmt"
	"slices"
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// refFlatNode is the old flat-node layout: everything materialized at
// node creation.
type refFlatNode struct {
	huge    bool
	base    addr.P
	chunks  []addr.P
	chunkOK []bool

	pfns    []addr.PFN
	present []bool
	used    int
}

// refFlattened is the old Flattened implementation, kept verbatim in
// behavior (including physical-frame allocation order, so walk PTE
// addresses are comparable against the production table when both run
// over identically seeded allocators).
type refFlattened struct {
	alloc *phys.Allocator
	root  *radixNode
	flats []*refFlatNode

	nodes      levelCounts
	used       levelCounts
	mapped     uint64
	hugeBacked uint64
	chunkFalls uint64
}

func newRefFlattened(alloc *phys.Allocator) *refFlattened {
	f := &refFlattened{alloc: alloc}
	f.root = f.newUpperNode(addr.PL4)
	return f
}

func (f *refFlattened) newUpperNode(level addr.Level) *radixNode {
	pfn, ok := f.alloc.AllocFrame()
	if !ok {
		panic("ref: out of physical memory for an upper node")
	}
	n := &radixNode{basePA: pfn.Addr(), level: level, children: make([]*radixNode, addr.EntriesPerTable)}
	f.nodes[level]++
	return n
}

func (f *refFlattened) newFlatNode() *refFlatNode {
	n := &refFlatNode{
		pfns:    make([]addr.PFN, addr.FlatEntries),
		present: make([]bool, addr.FlatEntries),
	}
	if base, ok := f.alloc.AllocHuge(); ok {
		n.huge = true
		n.base = base.Addr()
		f.hugeBacked++
	} else {
		n.chunks = make([]addr.P, addr.EntriesPerTable)
		n.chunkOK = make([]bool, addr.EntriesPerTable)
		f.chunkFalls++
	}
	f.nodes[addr.L2L1]++
	return n
}

func (n *refFlatNode) pteAddr(alloc *phys.Allocator, idx uint64) addr.P {
	if n.huge {
		return n.base + addr.P(idx*addr.PTESize)
	}
	c := idx >> addr.LevelBits
	if !n.chunkOK[c] {
		pfn, ok := alloc.AllocFrame()
		if !ok {
			panic("ref: out of physical memory for a chunk")
		}
		n.chunks[c] = pfn.Addr()
		n.chunkOK[c] = true
	}
	return n.chunks[c] + addr.P((idx&(addr.EntriesPerTable-1))*addr.PTESize)
}

func (f *refFlattened) flatAt(slot uint64) *refFlatNode {
	if slot >= uint64(len(f.flats)) {
		return nil
	}
	return f.flats[slot]
}

func (f *refFlattened) flatFor(v addr.V, create bool) *refFlatNode {
	i4 := addr.Index(v, addr.PL4)
	n3 := f.root.children[i4]
	if n3 == nil {
		if !create {
			return nil
		}
		n3 = f.newUpperNode(addr.PL3)
		f.root.children[i4] = n3
		f.root.used++
		f.used[addr.PL4]++
	}
	slot := pl3Slot(v)
	fn := f.flatAt(slot)
	if fn == nil {
		if !create {
			return nil
		}
		fn = f.newFlatNode()
		for uint64(len(f.flats)) <= slot {
			f.flats = append(f.flats, nil)
		}
		f.flats[slot] = fn
		n3.used++
		f.used[addr.PL3]++
	}
	return fn
}

func (f *refFlattened) Map(vpn addr.VPN, pfn addr.PFN) {
	v := vpn.Addr()
	fn := f.flatFor(v, true)
	idx := addr.FlatIndex(v)
	if !fn.present[idx] {
		fn.present[idx] = true
		fn.used++
		f.used[addr.L2L1]++
		f.mapped++
	}
	fn.pfns[idx] = pfn
}

func (f *refFlattened) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for count > 0 {
		v := vpn.Addr()
		fn := f.flatFor(v, true)
		idx := addr.FlatIndex(v)
		n := uint64(addr.FlatEntries) - idx
		if n > count {
			n = count
		}
		for k := uint64(0); k < n; k++ {
			if !fn.present[idx+k] {
				fn.present[idx+k] = true
				fn.used++
				f.used[addr.L2L1]++
				f.mapped++
			}
			fn.pfns[idx+k] = base + addr.PFN(k)
		}
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
}

func (f *refFlattened) MapHuge(vpn addr.VPN, base addr.PFN) {
	f.MapRange(vpn, addr.EntriesPerTable, base)
}

func (f *refFlattened) Lookup(vpn addr.VPN) (Entry, bool) {
	v := vpn.Addr()
	fn := f.flatFor(v, false)
	if fn == nil {
		return Entry{}, false
	}
	idx := addr.FlatIndex(v)
	if !fn.present[idx] {
		return Entry{}, false
	}
	return Entry{PFN: fn.pfns[idx]}, true
}

func (f *refFlattened) Unmap(vpn addr.VPN) (Entry, bool) {
	v := vpn.Addr()
	fn := f.flatFor(v, false)
	if fn == nil {
		return Entry{}, false
	}
	idx := addr.FlatIndex(v)
	if !fn.present[idx] {
		return Entry{}, false
	}
	fn.present[idx] = false
	fn.used--
	f.used[addr.L2L1]--
	f.mapped--
	return Entry{PFN: fn.pfns[idx]}, true
}

func (f *refFlattened) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	i4 := addr.Index(v, addr.PL4)
	w.Seq = append(w.Seq, Access{addr.PL4, pteAddr(f.root.basePA, i4)})
	n3 := f.root.children[i4]
	if n3 == nil {
		return
	}
	w.Seq = append(w.Seq, Access{addr.PL3, pteAddr(n3.basePA, addr.Index(v, addr.PL3))})
	fn := f.flatAt(pl3Slot(v))
	if fn == nil {
		return
	}
	idx := addr.FlatIndex(v)
	w.Seq = append(w.Seq, Access{addr.L2L1, fn.pteAddr(f.alloc, idx)})
	if !fn.present[idx] {
		return
	}
	w.Found = true
	w.Entry = Entry{PFN: fn.pfns[idx]}
}

func (f *refFlattened) Occupancy() []LevelOccupancy {
	return []LevelOccupancy{
		{Level: addr.PL4, Nodes: f.nodes[addr.PL4], EntriesUsed: f.used[addr.PL4],
			Capacity: f.nodes[addr.PL4] * addr.EntriesPerTable},
		{Level: addr.PL3, Nodes: f.nodes[addr.PL3], EntriesUsed: f.used[addr.PL3],
			Capacity: f.nodes[addr.PL3] * addr.EntriesPerTable},
		{Level: addr.L2L1, Nodes: f.nodes[addr.L2L1], EntriesUsed: f.used[addr.L2L1],
			Capacity: f.nodes[addr.L2L1] * addr.FlatEntries},
	}
}

func (f *refFlattened) MappedPages() uint64 { return f.mapped }

// differentialVPN draws a VPN biased toward locality: most draws land in
// a handful of dense 2 MB spans, the rest scatter across a 4 GB heap so
// multiple flattened nodes (and sparse chunks) appear.
func differentialVPN(rng *xrand.RNG) addr.VPN {
	if rng.Uint64n(4) != 0 {
		span := rng.Uint64n(8) << addr.LevelBits // one of 8 chunk bases
		return addr.VPN(span + rng.Uint64n(addr.EntriesPerTable))
	}
	return addr.VPN(rng.Uint64n(1 << 20)) // anywhere in 4 GB
}

// runFlattenedDifferential drives the production table and the []bool
// reference through one randomized sequence over identically seeded
// allocators and requires exact agreement.
func runFlattenedDifferential(t *testing.T, seed uint64, fragment bool) {
	t.Helper()
	mkAlloc := func() *phys.Allocator {
		a := phys.New(1 << 30)
		if fragment {
			// Identical fragmentation on both allocators: chunk-backed
			// nodes exercise the lazy PTE-frame path.
			a.InjectFragmentation(xrand.New(7), 8192, 1)
			for {
				if _, ok := a.AllocHuge(); !ok {
					break
				}
			}
		}
		return a
	}
	got := NewFlattened(mkAlloc())
	want := newRefFlattened(mkAlloc())
	rng := xrand.New(seed)

	var wg, ww Walk
	for op := 0; op < 20000; op++ {
		vpn := differentialVPN(rng)
		switch rng.Uint64n(10) {
		case 0, 1, 2:
			pfn := addr.PFN(rng.Uint64n(1 << 22))
			got.Map(vpn, pfn)
			want.Map(vpn, pfn)
		case 3:
			count := rng.Uint64n(2048) + 1
			base := addr.PFN(rng.Uint64n(1 << 22))
			got.MapRange(vpn, count, base)
			want.MapRange(vpn, count, base)
		case 4:
			huge := vpn &^ addr.VPN(addr.EntriesPerTable-1)
			base := addr.PFN(rng.Uint64n(1 << 22))
			got.MapHuge(huge, base)
			want.MapHuge(huge, base)
		case 5:
			eg, okg := got.Unmap(vpn)
			ew, okw := want.Unmap(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Unmap(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
		case 6, 7:
			eg, okg := got.Lookup(vpn)
			ew, okw := want.Lookup(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Lookup(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
			if got.Present(vpn) != okw {
				t.Fatalf("op %d: Present(%#x) = %v, Lookup says %v", op, uint64(vpn), !okw, okw)
			}
		default:
			v := vpn.Addr() + addr.V(rng.Uint64n(addr.PageSize))
			got.WalkInto(v, &wg)
			want.WalkInto(v, &ww)
			if wg.Found != ww.Found || wg.Entry != ww.Entry || len(wg.Seq) != len(ww.Seq) {
				t.Fatalf("op %d: WalkInto(%#x) = %+v want %+v", op, uint64(v), wg, ww)
			}
			for i := range wg.Seq {
				if wg.Seq[i] != ww.Seq[i] {
					t.Fatalf("op %d: walk access %d = %+v want %+v", op, i, wg.Seq[i], ww.Seq[i])
				}
			}
		}
	}

	if g, w := got.MappedPages(), want.MappedPages(); g != w {
		t.Fatalf("MappedPages = %d, want %d", g, w)
	}
	og, ow := got.Occupancy(), want.Occupancy()
	if len(og) != len(ow) {
		t.Fatalf("Occupancy rows = %d, want %d", len(og), len(ow))
	}
	for i := range og {
		if og[i] != ow[i] {
			t.Fatalf("Occupancy[%d] = %+v, want %+v", i, og[i], ow[i])
		}
	}
	// Exhaustive sweep of the touched span: every entry agrees.
	for vpn := addr.VPN(0); vpn < 1<<20; vpn += 17 {
		eg, okg := got.Lookup(vpn)
		ew, okw := want.Lookup(vpn)
		if okg != okw || eg != ew {
			t.Fatalf("final sweep: Lookup(%#x) = %+v,%v want %+v,%v", uint64(vpn), eg, okg, ew, okw)
		}
	}
}

func TestFlattenedDifferentialHugeBacked(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runFlattenedDifferential(t, seed, false)
	}
}

func TestFlattenedDifferentialChunkBacked(t *testing.T) {
	for seed := uint64(5); seed <= 8; seed++ {
		runFlattenedDifferential(t, seed, true)
	}
}

// TestRadixDifferentialAgainstReference drives Radix and the reference
// flattened layout through the same 4 KB-mapping sequence: two different
// organizations of one function must agree on every translation and on
// the mapped-page count (occupancy shapes differ by design).
func TestRadixDifferentialAgainstReference(t *testing.T) {
	r := NewRadix(phys.New(1 << 30))
	want := newRefFlattened(phys.New(1 << 30))
	rng := xrand.New(11)
	for op := 0; op < 20000; op++ {
		vpn := differentialVPN(rng)
		switch rng.Uint64n(8) {
		case 0, 1, 2:
			pfn := addr.PFN(rng.Uint64n(1 << 22))
			r.Map(vpn, pfn)
			want.Map(vpn, pfn)
		case 3:
			count := rng.Uint64n(2048) + 1
			base := addr.PFN(rng.Uint64n(1 << 22))
			r.MapRange(vpn, count, base)
			want.MapRange(vpn, count, base)
		case 4:
			eg, okg := r.Unmap(vpn)
			ew, okw := want.Unmap(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Unmap(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
		default:
			eg, okg := r.Lookup(vpn)
			ew, okw := want.Lookup(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Lookup(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
			if r.Present(vpn) != okw {
				t.Fatalf("op %d: Present(%#x) disagrees with Lookup", op, uint64(vpn))
			}
		}
	}
	if g, w := r.MappedPages(), want.MappedPages(); g != w {
		t.Fatalf("MappedPages = %d, want %d", g, w)
	}
}

// TestCuckooDifferentialAgainstReference does the same for the elastic
// cuckoo table (no huge mappings there).
func TestCuckooDifferentialAgainstReference(t *testing.T) {
	c := NewCuckoo(phys.New(1<<30), 4096)
	want := newRefFlattened(phys.New(1 << 30))
	rng := xrand.New(13)
	for op := 0; op < 20000; op++ {
		vpn := differentialVPN(rng)
		switch rng.Uint64n(8) {
		case 0, 1, 2:
			pfn := addr.PFN(rng.Uint64n(1 << 22))
			c.Map(vpn, pfn)
			want.Map(vpn, pfn)
		case 3:
			count := rng.Uint64n(512) + 1
			base := addr.PFN(rng.Uint64n(1 << 22))
			c.MapRange(vpn, count, base)
			want.MapRange(vpn, count, base)
		case 4:
			eg, okg := c.Unmap(vpn)
			ew, okw := want.Unmap(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Unmap(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
		default:
			eg, okg := c.Lookup(vpn)
			ew, okw := want.Lookup(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Lookup(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
			if c.Present(vpn) != okw {
				t.Fatalf("op %d: Present(%#x) disagrees with Lookup", op, uint64(vpn))
			}
		}
	}
	if g, w := c.MappedPages(), want.MappedPages(); g != w {
		t.Fatalf("MappedPages = %d, want %d", g, w)
	}
}

// refCuckoo keeps the pre-packing elastic cuckoo table as a test-only
// reference: 16-byte host slots holding the VPN and PFN as two words,
// a Present and an update-in-place check that probe all d ways, and the
// float load-factor resize test. The production table (cuckoo.go) must
// place every entry in the same slot, kick the same occupants and
// allocate the same frames in the same order; the placement
// differential below holds it to that.
type refCuckoo struct {
	alloc *phys.Allocator
	ways  []*refCuckooWay
	salts []uint64
	count uint64

	migrateStep int
	threshold   float64

	stats CuckooStats

	// forced counts resizes forced by an exhausted displacement path
	// (test-only coverage counter).
	forced uint64
}

type refCuckooSlot struct {
	vpn addr.VPN
	pfn addr.PFN
}

type refCuckooTab struct {
	slots  []refCuckooSlot
	occ    []uint64
	frames []addr.P
}

func (t *refCuckooTab) full(i int) bool { return bitset.TestBit(t.occ, uint64(i)) }

type refCuckooWay struct {
	refCuckooTab
	count int

	resizing bool
	newTab   refCuckooTab
	migPtr   int
}

// The reference's own copy of the modelled slot geometry, so a change
// to the production constants cannot move both tables together.
const (
	refSlotBytes     = 16
	refSlotsPerFrame = addr.PageSize / refSlotBytes
)

func newRefCuckoo(alloc *phys.Allocator, initialSlots int, threshold float64) *refCuckoo {
	size := refSlotsPerFrame
	for size < initialSlots {
		size *= 2
	}
	c := &refCuckoo{
		alloc:       alloc,
		salts:       []uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9},
		migrateStep: 8,
		threshold:   threshold,
	}
	for range c.salts {
		c.ways = append(c.ways, &refCuckooWay{refCuckooTab: c.newTab(size)})
	}
	return c
}

func (c *refCuckoo) Stats() CuckooStats { return c.stats }

func (c *refCuckoo) newTab(size int) refCuckooTab {
	return refCuckooTab{
		slots:  make([]refCuckooSlot, size),
		occ:    make([]uint64, bitset.WordsFor(uint64(size))),
		frames: c.allocFrames(size),
	}
}

func (c *refCuckoo) allocFrames(slots int) []addr.P {
	n := (slots + refSlotsPerFrame - 1) / refSlotsPerFrame
	frames := make([]addr.P, n)
	for i := range frames {
		pfn, ok := c.alloc.AllocFrame()
		if !ok {
			panic("ref: out of physical memory for a cuckoo way")
		}
		frames[i] = pfn.Addr()
	}
	return frames
}

func (c *refCuckoo) hash(w int, vpn addr.VPN, size int) int {
	return int(xrand.Hash64(uint64(vpn)^c.salts[w])) & (size - 1)
}

func refSlotPA(frames []addr.P, i int) addr.P {
	return frames[i/refSlotsPerFrame] + addr.P((i%refSlotsPerFrame)*refSlotBytes)
}

func (c *refCuckoo) probe(w int, vpn addr.VPN) (tab *refCuckooTab, idx int, pa addr.P) {
	way := c.ways[w]
	hOld := c.hash(w, vpn, len(way.slots))
	if way.resizing && hOld < way.migPtr {
		hNew := c.hash(w, vpn, len(way.newTab.slots))
		return &way.newTab, hNew, refSlotPA(way.newTab.frames, hNew)
	}
	return &way.refCuckooTab, hOld, refSlotPA(way.frames, hOld)
}

func (c *refCuckoo) Lookup(vpn addr.VPN) (Entry, bool) {
	for w := range c.ways {
		tab, idx, _ := c.probe(w, vpn)
		if tab.full(idx) && tab.slots[idx].vpn == vpn {
			return Entry{PFN: tab.slots[idx].pfn}, true
		}
	}
	return Entry{}, false
}

func (c *refCuckoo) Present(vpn addr.VPN) bool {
	_, ok := c.Lookup(vpn)
	return ok
}

func (c *refCuckoo) WalkInto(v addr.V, w *Walk) {
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

func (c *refCuckoo) Map(vpn addr.VPN, pfn addr.PFN) {
	c.stats.Inserts++
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

func (c *refCuckoo) insert(vpn addr.VPN, pfn addr.PFN, attempts int) {
	if attempts > 8 {
		panic("ref: cuckoo insertion failed after repeated resizes")
	}
	cur := refCuckooSlot{vpn: vpn, pfn: pfn}
	w := int(uint64(vpn)) % len(c.ways)
	const maxKicks = 32
	for kick := 0; kick < maxKicks; kick++ {
		tab, idx, _ := c.probe(w, cur.vpn)
		if bitset.SetBit(tab.occ, uint64(idx)) {
			tab.slots[idx] = cur
			c.ways[w].count++
			return
		}
		tab.slots[idx], cur = cur, tab.slots[idx]
		c.stats.Kicks++
		w = (w + 1) % len(c.ways)
	}
	c.forced++
	c.forceResize()
	c.advanceMigrations()
	c.insert(cur.vpn, cur.pfn, attempts+1)
}

func (c *refCuckoo) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for k := uint64(0); k < count; k++ {
		c.Map(vpn+addr.VPN(k), base+addr.PFN(k))
	}
}

func (c *refCuckoo) Unmap(vpn addr.VPN) (Entry, bool) {
	for w := range c.ways {
		tab, idx, _ := c.probe(w, vpn)
		if tab.full(idx) && tab.slots[idx].vpn == vpn {
			e := Entry{PFN: tab.slots[idx].pfn}
			tab.slots[idx] = refCuckooSlot{}
			bitset.ClearBit(tab.occ, uint64(idx))
			c.ways[w].count--
			c.count--
			return e, true
		}
	}
	return Entry{}, false
}

func (c *refCuckoo) maybeResize() {
	for _, way := range c.ways {
		if !way.resizing && float64(way.count) > c.threshold*float64(len(way.slots)) {
			c.beginResize(way)
		}
	}
}

func (c *refCuckoo) forceResize() {
	var target *refCuckooWay
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
		for _, way := range c.ways {
			for way.resizing {
				c.migrate(way, len(way.slots))
			}
		}
		return
	}
	c.beginResize(target)
}

func (c *refCuckoo) beginResize(way *refCuckooWay) {
	way.resizing = true
	way.newTab = c.newTab(2 * len(way.slots))
	way.migPtr = 0
	c.stats.Resizes++
}

func (c *refCuckoo) advanceMigrations() {
	for _, way := range c.ways {
		if way.resizing {
			c.migrate(way, c.migrateStep)
		}
	}
}

func (c *refCuckoo) migrate(way *refCuckooWay, n int) {
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
			way.count--
			c.insert(s.vpn, s.pfn, 0)
		} else {
			way.newTab.slots[hNew] = s
		}
		c.stats.Migrated++
	}
	if way.migPtr >= len(way.slots) {
		for _, f := range way.frames {
			c.alloc.Free(f.Page())
		}
		way.refCuckooTab = way.newTab
		way.newTab = refCuckooTab{}
		way.resizing = false
	}
}

func (c *refCuckoo) wayIndex(way *refCuckooWay) int {
	for i, w := range c.ways {
		if w == way {
			return i
		}
	}
	panic("ref: unknown cuckoo way")
}

func (c *refCuckoo) Occupancy() []LevelOccupancy {
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

func (c *refCuckoo) MappedPages() uint64 { return c.count }

func (c *refCuckoo) LoadFactors() []float64 {
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

// cuckooPair drives the production table and the reference through the
// same operations and compares everything either exposes.
type cuckooPair struct {
	got     *Cuckoo
	want    *refCuckoo
	touched []addr.VPN // VPNs mapped so far, for re-maps and the final sweep
}

// cuckooDiffSlots is the differential's initial slots per way: one
// frame's worth, so a few hundred mappings already resize.
const cuckooDiffSlots = 256

// heapBasePage is the first VPN of the OS model's heap, where the
// simulator's mappings cluster.
const heapBasePage = 1 << 27

// newCuckooPair builds both tables with the given resize threshold
// (production uses 0.6).
func newCuckooPair(threshold float64) *cuckooPair {
	return &cuckooPair{
		got:  newCuckoo(phys.New(1<<30), cuckooDiffSlots, threshold),
		want: newRefCuckoo(phys.New(1<<30), cuckooDiffSlots, threshold),
	}
}

// cuckooOpBytes is the encoded size of one differential operation.
const cuckooOpBytes = 5

// step decodes and applies one operation: op[0] picks the kind (low
// three bits) and the VPN source (next two bits); op[1:5] is the operand
// word. After the operation both tables must agree on the op's result,
// on a walk for its VPN, and on every counter.
func (p *cuckooPair) step(op []byte) error {
	x := uint64(op[1]) | uint64(op[2])<<8 | uint64(op[3])<<16 | uint64(op[4])<<24
	var vpn addr.VPN
	switch op[0] >> 3 & 3 {
	case 0: // a VPN mapped earlier: re-maps and unmaps of present pages
		if len(p.touched) > 0 {
			vpn = p.touched[x%uint64(len(p.touched))]
			break
		}
		fallthrough
	case 1, 2: // the dense heap span the OS model maps
		vpn = heapBasePage + addr.VPN(x&(1<<16-1))
	case 3: // anywhere in the 36-bit domain
		vpn = addr.VPN(xrand.Hash64(x) % cuckooVPNs)
	}
	pfn := addr.PFN(xrand.Hash64(x^0x5bd1e995) % (1 << 28))
	switch op[0] & 7 {
	case 0, 1, 2:
		p.got.Map(vpn, pfn)
		p.want.Map(vpn, pfn)
		p.touched = append(p.touched, vpn)
	case 3:
		count := x>>24 + 1
		if uint64(vpn)+count > cuckooVPNs || uint64(pfn)+count > 1<<28 {
			count = 1
		}
		p.got.MapRange(vpn, count, pfn)
		p.want.MapRange(vpn, count, pfn)
		p.touched = append(p.touched, vpn, vpn+addr.VPN(count-1))
	case 4:
		eg, okg := p.got.Unmap(vpn)
		ew, okw := p.want.Unmap(vpn)
		if okg != okw || eg != ew {
			return fmt.Errorf("Unmap(%#x) = %+v,%v want %+v,%v", uint64(vpn), eg, okg, ew, okw)
		}
	default:
		if err := p.sameEntry(vpn); err != nil {
			return err
		}
	}
	if err := p.sameWalk(vpn.Addr() + addr.V(x%addr.PageSize)); err != nil {
		return err
	}
	return p.sameCounters()
}

func (p *cuckooPair) sameEntry(vpn addr.VPN) error {
	eg, okg := p.got.Lookup(vpn)
	ew, okw := p.want.Lookup(vpn)
	if okg != okw || eg != ew {
		return fmt.Errorf("Lookup(%#x) = %+v,%v want %+v,%v", uint64(vpn), eg, okg, ew, okw)
	}
	if pg, pw := p.got.Present(vpn), p.want.Present(vpn); pg != pw {
		return fmt.Errorf("Present(%#x) = %v want %v", uint64(vpn), pg, pw)
	}
	return nil
}

func (p *cuckooPair) sameWalk(v addr.V) error {
	var wg, ww Walk
	p.got.WalkInto(v, &wg)
	p.want.WalkInto(v, &ww)
	if wg.Found != ww.Found || wg.Entry != ww.Entry || wg.FoundIdx != ww.FoundIdx ||
		!slices.Equal(wg.Par, ww.Par) || len(wg.Seq) != 0 {
		return fmt.Errorf("WalkInto(%#x) = %+v want %+v", uint64(v), wg, ww)
	}
	return nil
}

func (p *cuckooPair) sameCounters() error {
	if g, w := p.got.Stats(), p.want.Stats(); g != w {
		return fmt.Errorf("Stats = %+v want %+v", g, w)
	}
	if g, w := p.got.MappedPages(), p.want.MappedPages(); g != w {
		return fmt.Errorf("MappedPages = %d want %d", g, w)
	}
	if g, w := p.got.Occupancy(), p.want.Occupancy(); !slices.Equal(g, w) {
		return fmt.Errorf("Occupancy = %+v want %+v", g, w)
	}
	if g, w := p.got.LoadFactors(), p.want.LoadFactors(); !slices.Equal(g, w) {
		return fmt.Errorf("LoadFactors = %v want %v", g, w)
	}
	return nil
}

// run applies every whole operation in ops, then sweeps every VPN the
// sequence mapped.
func (p *cuckooPair) run(t *testing.T, ops []byte) {
	t.Helper()
	for i := 0; i+cuckooOpBytes <= len(ops); i += cuckooOpBytes {
		if err := p.step(ops[i : i+cuckooOpBytes]); err != nil {
			t.Fatalf("op %d (% x): %v", i/cuckooOpBytes, ops[i:i+cuckooOpBytes], err)
		}
	}
	for _, vpn := range p.touched {
		if err := p.sameEntry(vpn); err != nil {
			t.Fatalf("final sweep: %v", err)
		}
	}
}

// TestCuckooPlacementMatchesReference is the placement differential:
// seeded random Map (re-maps included), MapRange, Unmap, Lookup,
// Present and WalkInto sequences through both tables, compared after
// every operation. Half the seeds run at the production threshold; the
// rest raise it until displacement fails, so both gradual and forced
// resizes are compared.
func TestCuckooPlacementMatchesReference(t *testing.T) {
	for _, threshold := range []float64{0.6, 0.9} {
		var forced, resizes uint64
		for seed := uint64(1); seed <= 3; seed++ {
			rng := xrand.New(seed)
			ops := make([]byte, 6000*cuckooOpBytes)
			for i := range ops {
				ops[i] = byte(rng.Uint64())
			}
			p := newCuckooPair(threshold)
			p.run(t, ops)
			forced += p.want.forced
			resizes += p.want.stats.Resizes
		}
		t.Logf("threshold %.1f: %d resizes, %d forced", threshold, resizes, forced)
		if resizes <= forced || (threshold > 0.6 && forced == 0) {
			t.Errorf("threshold %.1f missed a resize path: %d resizes, %d forced", threshold, resizes, forced)
		}
	}
}

// FuzzCuckooMatchesReference runs arbitrary operation streams through
// the placement differential, at the production threshold or (high) at
// the raised one.
func FuzzCuckooMatchesReference(f *testing.F) {
	f.Add(false, []byte{0x10, 1, 0, 0, 0, 0x13, 0, 1, 0, 0xff, 0x05, 0, 1, 0, 0, 0x04, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, high bool, ops []byte) {
		threshold := 0.6
		if high {
			threshold = 0.9
		}
		newCuckooPair(threshold).run(t, ops)
	})
}
