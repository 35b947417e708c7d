package pagetable

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// cuckooVPNs bounds the VPNs the cuckoo tests draw: the table's domain,
// the canonical lower half of the 48-bit virtual address space.
const cuckooVPNs = 1 << 36

func TestCuckooMapLookup(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	if _, ok := c.Lookup(42); ok {
		t.Fatal("empty table lookup hit")
	}
	before := c.MetadataBytes()
	c.Map(42, 1000)
	if grew := c.MetadataBytes() - before; grew < addr.PageSize {
		t.Errorf("first Map grew MetadataBytes by %d, want at least the membership bitmap's 4 KB page", grew)
	}
	e, ok := c.Lookup(42)
	if !ok || e.PFN != 1000 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	c.Map(42, 2000)
	if e, _ := c.Lookup(42); e.PFN != 2000 {
		t.Error("remap did not update in place")
	}
	if c.MappedPages() != 1 {
		t.Errorf("MappedPages = %d, want 1", c.MappedPages())
	}
}

func TestCuckooWalkIsParallel(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	c.Map(7, 77)
	var w Walk
	c.WalkInto(addr.VPN(7).Addr(), &w)
	if !w.Found || w.Entry.PFN != 77 {
		t.Fatalf("walk = %+v", w)
	}
	if len(w.Par) != 3 || len(w.Seq) != 0 {
		t.Fatalf("ECH walk must be 3 parallel probes, got par=%d seq=%d",
			len(w.Par), len(w.Seq))
	}
	for _, a := range w.Par {
		if a.Level != HashLevel {
			t.Errorf("probe level = %v, want HashLevel", a.Level)
		}
	}
}

func TestCuckooMissedWalkStillProbesAllWays(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	var w Walk
	c.WalkInto(addr.VPN(123).Addr(), &w)
	if w.Found || len(w.Par) != 3 {
		t.Fatalf("miss walk = %+v", w)
	}
}

func TestCuckooManyInsertsAllRetrievable(t *testing.T) {
	c := NewCuckoo(newAlloc(), 512)
	rng := xrand.New(11)
	want := map[addr.VPN]addr.PFN{}
	for i := 0; i < 50000; i++ {
		vpn := addr.VPN(rng.Uint64n(cuckooVPNs))
		pfn := addr.PFN(i)
		c.Map(vpn, pfn)
		want[vpn] = pfn
	}
	if c.MappedPages() != uint64(len(want)) {
		t.Fatalf("MappedPages = %d, want %d", c.MappedPages(), len(want))
	}
	for vpn, pfn := range want {
		e, ok := c.Lookup(vpn)
		if !ok || e.PFN != pfn {
			t.Fatalf("vpn %#x: got %+v/%v want pfn %d", uint64(vpn), e, ok, pfn)
		}
	}
	if c.Stats().Resizes == 0 {
		t.Error("50k inserts into 512-slot ways must have resized")
	}
}

func TestCuckooLoadFactorBounded(t *testing.T) {
	c := NewCuckoo(newAlloc(), 512)
	rng := xrand.New(13)
	for i := 0; i < 20000; i++ {
		c.Map(addr.VPN(rng.Uint64n(cuckooVPNs)), addr.PFN(i))
	}
	for w, lf := range c.LoadFactors() {
		if lf > 0.85 {
			t.Errorf("way %d load factor %.2f exceeds bound", w, lf)
		}
	}
}

func TestCuckooResizePreservesEntriesDuringMigration(t *testing.T) {
	c := NewCuckoo(newAlloc(), 512)
	rng := xrand.New(17)
	var keys []addr.VPN
	// Insert enough to trigger a resize but not complete migration, then
	// verify every key mid-migration.
	for i := 0; i < 400; i++ {
		vpn := addr.VPN(rng.Uint64n(cuckooVPNs))
		c.Map(vpn, addr.PFN(i))
		keys = append(keys, vpn)
		for j, k := range keys {
			if e, ok := c.Lookup(k); !ok || e.PFN != addr.PFN(j) {
				t.Fatalf("after insert %d: key %d lost (%+v, %v)", i, j, e, ok)
			}
		}
	}
}

func TestCuckooMapHugePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MapHuge on cuckoo did not panic")
		}
	}()
	NewCuckoo(newAlloc(), 512).MapHuge(0, 0)
}

// TestOutOfMemoryPanicsWithSentinel: a table that exhausts physical
// memory panics with an error wrapping phys.ErrOutOfMemory, the one
// panic value sim.New turns into an error. One cuckoo way of 2^20 slots
// needs 4096 frames and 2 MB holds 512; the radix case runs out after
// about 512 leaf nodes, one per 2 MB of mapped span.
func TestOutOfMemoryPanicsWithSentinel(t *testing.T) {
	for name, build := range map[string]func(){
		"cuckoo": func() { NewCuckoo(phys.New(2<<20), 1<<20) },
		"radix": func() {
			r := NewRadix(phys.New(2 << 20))
			for v := addr.VPN(0); ; v += addr.EntriesPerTable {
				r.Map(v, 1)
			}
		},
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || !errors.Is(err, phys.ErrOutOfMemory) {
					t.Errorf("%s: panic value %v does not wrap phys.ErrOutOfMemory", name, err)
				}
			}()
			build()
		}()
	}
}

// TestCuckooRejectsOutOfDomainVPN: a packed slot holds a 36-bit VPN and
// a 28-bit PFN, so anything wider must panic instead of aliasing
// another page's slot.
func TestCuckooRejectsOutOfDomainVPN(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one containing %q", name, msg, want)
			}
		}()
		f()
	}
	c := NewCuckoo(newAlloc(), 1024)
	mustPanic("VPN 2^36", "outside the table's domain", func() { c.Map(cuckooVPNs, 1) })
	mustPanic("PFN 2^28", "outside the table's domain", func() { c.Map(1, 1<<28) })
	mustPanic("range crossing 2^36", "outside the table's domain", func() { c.MapRange(cuckooVPNs-2, 4, 1) })
	mustPanic("allocator over 2^28 frames", "at most 2^28 frames", func() {
		NewCuckoo(phys.New(1<<40+addr.HugePageSize), 1024)
	})
	// The largest in-domain mapping still round-trips.
	c = NewCuckoo(newAlloc(), 1024)
	c.Map(cuckooVPNs-1, 1<<28-1)
	if e, ok := c.Lookup(cuckooVPNs - 1); !ok || e.PFN != 1<<28-1 {
		t.Errorf("Lookup(2^36-1) = %+v, %v; want PFN 2^28-1", e, ok)
	}
	if !c.Present(cuckooVPNs-1) || c.Present(cuckooVPNs-2) {
		t.Error("Present disagrees at the top of the domain")
	}
}

func TestCuckooProbeAddressesDistinctWays(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	var w Walk
	c.WalkInto(addr.VPN(99).Addr(), &w)
	seen := map[addr.P]bool{}
	for _, a := range w.Par {
		if seen[a.PA] {
			t.Errorf("two ways probed the same physical slot %#x", uint64(a.PA))
		}
		seen[a.PA] = true
	}
}

func TestCuckooOccupancyReport(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	for i := 0; i < 100; i++ {
		c.Map(addr.VPN(i*977), addr.PFN(i))
	}
	occ := c.Occupancy()
	if len(occ) != 1 || occ[0].Level != HashLevel {
		t.Fatalf("occupancy = %+v", occ)
	}
	if occ[0].EntriesUsed != 100 || occ[0].Nodes != 3 {
		t.Errorf("occupancy row = %+v", occ[0])
	}
}

func TestCuckooMapRange(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	c.MapRange(100, 600, 9000)
	for _, k := range []uint64{0, 599} {
		e, ok := c.Lookup(addr.VPN(100 + k))
		if !ok || e.PFN != addr.PFN(9000+k) {
			t.Fatalf("range page +%d: %+v, %v", k, e, ok)
		}
	}
}

// Property: Map then Lookup agrees for arbitrary key sets (cuckoo vs a
// plain map as the model).
func TestCuckooMatchesModel(t *testing.T) {
	f := func(raw []uint32) bool {
		c := NewCuckoo(newAlloc(), 256)
		model := map[addr.VPN]addr.PFN{}
		for i, r := range raw {
			vpn := addr.VPN(r)
			pfn := addr.PFN(i)
			c.Map(vpn, pfn)
			model[vpn] = pfn
		}
		for vpn, pfn := range model {
			if e, ok := c.Lookup(vpn); !ok || e.PFN != pfn {
				return false
			}
		}
		return c.MappedPages() == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCuckooDeterministic(t *testing.T) {
	run := func() CuckooStats {
		c := NewCuckoo(newAlloc(), 256)
		rng := xrand.New(5)
		for i := 0; i < 5000; i++ {
			c.Map(addr.VPN(rng.Uint64n(1<<30)), addr.PFN(i))
		}
		return c.Stats()
	}
	if run() != run() {
		t.Error("cuckoo construction is not deterministic")
	}
}
