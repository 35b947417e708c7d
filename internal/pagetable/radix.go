package pagetable

import (
	"fmt"
	"unsafe"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/phys"
)

// nodeWords is the size of one node-level present bitmap: one bit per
// table entry, packed into uint64 words (8 words = 64 B — one cache
// line — instead of a 512-byte bool array).
const nodeWords = addr.EntriesPerTable / 64

// radixNode is one 4 KB table node. Interior nodes hold child pointers;
// PL2 nodes may also hold 2 MB leaf entries; PL1 nodes hold frame numbers.
type radixNode struct {
	basePA addr.P
	level  addr.Level
	used   int
	// children is populated for interior nodes (PL4, PL3, PL2).
	children []*radixNode
	// hugeLeaf marks PL2 slots that are 2 MB leaf entries; hugePFN holds
	// the base frame. Only allocated for PL2 nodes that need it.
	hugeLeaf []uint64
	hugePFN  []addr.PFN
	// pfns/present are populated for PL1 leaf nodes; present is a
	// bit-packed entry bitmap.
	pfns    []addr.PFN
	present []uint64
}

// isHuge reports whether PL2 slot idx of n holds a 2 MB leaf entry.
func (n *radixNode) isHuge(idx uint64) bool {
	return n.hugeLeaf != nil && bitset.TestBit(n.hugeLeaf, idx)
}

// levelCounts is a dense per-level counter array indexed by addr.Level
// (PL1..L2L1), replacing the map the occupancy bookkeeping used to key
// through: Map/Unmap touch these counters on every call and a map
// bucket probe per mapped page is measurable at population scale.
type levelCounts [addr.L2L1 + 1]uint64

// Radix is the conventional x86-64 4-level page table. It also serves the
// Huge Page mechanism via MapHuge (2 MB leaves at PL2).
type Radix struct {
	alloc  *phys.Allocator
	root   *radixNode
	nodes  levelCounts
	used   levelCounts
	mapped uint64
	// hugeNodes counts PL2 nodes that allocated huge-leaf side arrays
	// (metadata accounting only).
	hugeNodes uint64
}

// NewRadix builds an empty 4-level table whose nodes are backed by frames
// from alloc.
func NewRadix(alloc *phys.Allocator) *Radix {
	r := &Radix{alloc: alloc}
	r.root = r.newNode(addr.PL4)
	return r
}

// Kind implements Table.
func (r *Radix) Kind() string { return "radix" }

func (r *Radix) newNode(level addr.Level) *radixNode {
	pfn, ok := r.alloc.AllocFrame()
	if !ok {
		panic(fmt.Errorf("pagetable: radix node: %w", phys.ErrOutOfMemory))
	}
	n := &radixNode{basePA: pfn.Addr(), level: level}
	if level == addr.PL1 {
		n.pfns = make([]addr.PFN, addr.EntriesPerTable)
		n.present = make([]uint64, nodeWords)
	} else {
		n.children = make([]*radixNode, addr.EntriesPerTable)
	}
	r.nodes[level]++
	return n
}

// child returns (creating if create is set) the child node under n at idx.
func (r *Radix) child(n *radixNode, idx uint64, create bool) *radixNode {
	if c := n.children[idx]; c != nil {
		return c
	}
	if !create {
		return nil
	}
	var lvl addr.Level
	switch n.level {
	case addr.PL4:
		lvl = addr.PL3
	case addr.PL3:
		lvl = addr.PL2
	case addr.PL2:
		lvl = addr.PL1
	default:
		panic("pagetable: child of leaf level")
	}
	c := r.newNode(lvl)
	n.children[idx] = c
	n.used++
	r.used[n.level]++
	return c
}

// pl1For returns the PL1 node covering vpn, creating the path if needed.
func (r *Radix) pl1For(vpn addr.VPN, create bool) *radixNode {
	v := vpn.Addr()
	n := r.child(r.root, addr.Index(v, addr.PL4), create)
	if n == nil {
		return nil
	}
	n = r.child(n, addr.Index(v, addr.PL3), create)
	if n == nil {
		return nil
	}
	i2 := addr.Index(v, addr.PL2)
	if n.isHuge(i2) {
		panic(fmt.Sprintf("pagetable: 4K map under existing 2MB mapping at vpn %#x", uint64(vpn)))
	}
	return r.child(n, i2, create)
}

// Map implements Table.
func (r *Radix) Map(vpn addr.VPN, pfn addr.PFN) {
	leaf := r.pl1For(vpn, true)
	i1 := addr.Index(vpn.Addr(), addr.PL1)
	if bitset.SetBit(leaf.present, i1) {
		leaf.used++
		r.used[addr.PL1]++
		r.mapped++
	}
	leaf.pfns[i1] = pfn
}

// MapRange implements Table with a fast path that fills PL1 nodes block
// by block.
func (r *Radix) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for count > 0 {
		leaf := r.pl1For(vpn, true)
		i1 := addr.Index(vpn.Addr(), addr.PL1)
		n := addr.EntriesPerTable - i1
		if n > count {
			n = count
		}
		fresh := bitset.SetRun(leaf.present, i1, n)
		leaf.used += int(fresh)
		r.used[addr.PL1] += fresh
		r.mapped += fresh
		for k := uint64(0); k < n; k++ {
			leaf.pfns[i1+k] = base + addr.PFN(k)
		}
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
}

// MapHuge implements Table: installs a 2 MB leaf at PL2.
func (r *Radix) MapHuge(vpn addr.VPN, base addr.PFN) {
	if !vpn.HugeAligned() {
		panic(fmt.Sprintf("pagetable: MapHuge of unaligned vpn %#x", uint64(vpn)))
	}
	v := vpn.Addr()
	n := r.child(r.root, addr.Index(v, addr.PL4), true)
	n = r.child(n, addr.Index(v, addr.PL3), true)
	i2 := addr.Index(v, addr.PL2)
	if n.children[i2] != nil {
		panic(fmt.Sprintf("pagetable: 2MB map over existing 4K table at vpn %#x", uint64(vpn)))
	}
	if n.hugeLeaf == nil {
		n.hugeLeaf = make([]uint64, nodeWords)
		n.hugePFN = make([]addr.PFN, addr.EntriesPerTable)
		r.hugeNodes++
	}
	if bitset.SetBit(n.hugeLeaf, i2) {
		n.used++
		r.used[n.level]++
		r.mapped += addr.EntriesPerTable
	}
	n.hugePFN[i2] = base
}

// Lookup implements Table.
func (r *Radix) Lookup(vpn addr.VPN) (Entry, bool) {
	v := vpn.Addr()
	n := r.root.children[addr.Index(v, addr.PL4)]
	if n == nil {
		return Entry{}, false
	}
	n = n.children[addr.Index(v, addr.PL3)]
	if n == nil {
		return Entry{}, false
	}
	i2 := addr.Index(v, addr.PL2)
	if n.isHuge(i2) {
		return Entry{PFN: n.hugePFN[i2], Huge: true}, true
	}
	leaf := n.children[i2]
	if leaf == nil {
		return Entry{}, false
	}
	i1 := addr.Index(v, addr.PL1)
	if !bitset.TestBit(leaf.present, i1) {
		return Entry{}, false
	}
	return Entry{PFN: leaf.pfns[i1]}, true
}

// Present implements Table: the demand-paging fast predicate — the same
// descent as Lookup but reading only present bits, never frame numbers.
func (r *Radix) Present(vpn addr.VPN) bool {
	v := vpn.Addr()
	n := r.root.children[addr.Index(v, addr.PL4)]
	if n == nil {
		return false
	}
	n = n.children[addr.Index(v, addr.PL3)]
	if n == nil {
		return false
	}
	i2 := addr.Index(v, addr.PL2)
	if n.isHuge(i2) {
		return true
	}
	leaf := n.children[i2]
	return leaf != nil && bitset.TestBit(leaf.present, addr.Index(v, addr.PL1))
}

// Unmap implements Table.
func (r *Radix) Unmap(vpn addr.VPN) (Entry, bool) {
	v := vpn.Addr()
	n := r.root.children[addr.Index(v, addr.PL4)]
	if n == nil {
		return Entry{}, false
	}
	n = n.children[addr.Index(v, addr.PL3)]
	if n == nil {
		return Entry{}, false
	}
	i2 := addr.Index(v, addr.PL2)
	if n.isHuge(i2) {
		bitset.ClearBit(n.hugeLeaf, i2)
		n.used--
		r.used[addr.PL2]--
		r.mapped -= addr.EntriesPerTable
		return Entry{PFN: n.hugePFN[i2], Huge: true}, true
	}
	leaf := n.children[i2]
	if leaf == nil {
		return Entry{}, false
	}
	i1 := addr.Index(v, addr.PL1)
	if !bitset.ClearBit(leaf.present, i1) {
		return Entry{}, false
	}
	leaf.used--
	r.used[addr.PL1]--
	r.mapped--
	return Entry{PFN: leaf.pfns[i1]}, true
}

// WalkInto implements Table: a sequential walk from PL4 downward. The walk
// records every PTE it reads, stopping at the first non-present entry or
// at the leaf (PL1 entry, or a 2 MB leaf at PL2).
func (r *Radix) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	n := r.root
	w.Seq = append(w.Seq, Access{addr.PL4, pteAddr(n.basePA, addr.Index(v, addr.PL4))})
	n = n.children[addr.Index(v, addr.PL4)]
	if n == nil {
		return
	}
	w.Seq = append(w.Seq, Access{addr.PL3, pteAddr(n.basePA, addr.Index(v, addr.PL3))})
	n = n.children[addr.Index(v, addr.PL3)]
	if n == nil {
		return
	}
	i2 := addr.Index(v, addr.PL2)
	w.Seq = append(w.Seq, Access{addr.PL2, pteAddr(n.basePA, i2)})
	if n.isHuge(i2) {
		w.Found = true
		w.Entry = Entry{PFN: n.hugePFN[i2], Huge: true}
		return
	}
	leaf := n.children[i2]
	if leaf == nil {
		return
	}
	i1 := addr.Index(v, addr.PL1)
	w.Seq = append(w.Seq, Access{addr.PL1, pteAddr(leaf.basePA, i1)})
	if !bitset.TestBit(leaf.present, i1) {
		return
	}
	w.Found = true
	w.Entry = Entry{PFN: leaf.pfns[i1]}
}

// pteAddr returns the physical address of entry idx in the table at base.
func pteAddr(base addr.P, idx uint64) addr.P {
	return base + addr.P(idx*addr.PTESize)
}

// Occupancy implements Table.
func (r *Radix) Occupancy() []LevelOccupancy {
	levels := []addr.Level{addr.PL4, addr.PL3, addr.PL2, addr.PL1}
	out := make([]LevelOccupancy, 0, len(levels))
	for _, l := range levels {
		out = append(out, LevelOccupancy{
			Level:       l,
			Nodes:       r.nodes[l],
			EntriesUsed: r.used[l],
			Capacity:    r.nodes[l] * addr.EntriesPerTable,
		})
	}
	return out
}

// MappedPages implements Table.
func (r *Radix) MappedPages() uint64 { return r.mapped }

// MetadataBytes implements Table: the simulator-side resident metadata,
// computed from the per-level node counts (interior nodes carry a
// 512-pointer child directory, PL1 leaves a frame array plus the
// bit-packed present set).
func (r *Radix) MetadataBytes() uint64 {
	const ptr = uint64(unsafe.Sizeof((*radixNode)(nil)))
	node := uint64(unsafe.Sizeof(radixNode{}))
	interior := r.nodes[addr.PL4] + r.nodes[addr.PL3] + r.nodes[addr.PL2]
	total := interior*(node+addr.EntriesPerTable*ptr) +
		r.nodes[addr.PL1]*(node+addr.EntriesPerTable*8+nodeWords*8)
	total += r.hugeNodes * (nodeWords*8 + addr.EntriesPerTable*8)
	return total
}
