package pagetable

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// benchTable populates a table with mixed dense+sparse mappings.
func benchTable(b testing.TB, t Table) []addr.V {
	b.Helper()
	t.MapRange(0, 1<<16, 0) // 256 MB dense
	rng := xrand.New(1)
	addrs := make([]addr.V, 4096)
	for i := range addrs {
		vpn := addr.VPN(rng.Uint64n(1 << 16))
		addrs[i] = vpn.Addr()
	}
	return addrs
}

func BenchmarkRadixWalk(b *testing.B) {
	t := NewRadix(phys.New(1 << 30))
	addrs := benchTable(b, t)
	var w Walk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.WalkInto(addrs[i&4095], &w)
	}
}

func BenchmarkFlattenedWalk(b *testing.B) {
	t := NewFlattened(phys.New(1 << 30))
	addrs := benchTable(b, t)
	var w Walk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.WalkInto(addrs[i&4095], &w)
	}
}

func BenchmarkCuckooWalk(b *testing.B) {
	t := NewCuckoo(phys.New(1<<30), 4096)
	addrs := benchTable(b, t)
	var w Walk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.WalkInto(addrs[i&4095], &w)
	}
}

func BenchmarkRadixMapRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := NewRadix(phys.New(1 << 30))
		t.MapRange(0, 1<<16, 0)
	}
}

// BenchmarkCuckooMapRange builds an ECH table the way the simulator
// does (4096 initial slots per way) and fills 8 GB of pages through
// 512-page MapRange calls, the eager-population pattern.
func BenchmarkCuckooMapRange(b *testing.B) {
	const pages, run = 1 << 21, 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := NewCuckoo(phys.New(16<<30), 4096)
		for v := uint64(0); v < pages; v += run {
			t.MapRange(addr.VPN(1<<27+v), run, addr.PFN(v))
		}
	}
}

func BenchmarkCuckooInsert(b *testing.B) {
	t := NewCuckoo(phys.New(1<<30), 1<<16)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Map(addr.VPN(rng.Uint64n(cuckooVPNs)), addr.PFN(i))
	}
}

func BenchmarkRadixLookup(b *testing.B) {
	t := NewRadix(phys.New(1 << 30))
	addrs := benchTable(b, t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(addrs[i&4095].Page())
	}
}

// benchSparseTable maps a handful of pages per 1 GB region across many
// regions, so lookups cross flat nodes and land in lazily materialized
// chunks.
func benchSparseTable(b testing.TB, t Table) []addr.V {
	b.Helper()
	rng := xrand.New(3)
	addrs := make([]addr.V, 4096)
	for i := range addrs {
		region := rng.Uint64n(64) << 18 // one of 64 flat nodes
		vpn := addr.VPN(region + rng.Uint64n(addr.FlatEntries))
		t.Map(vpn, addr.PFN(i))
		addrs[i] = vpn.Addr()
	}
	return addrs
}

// lookupPopulations are the Flattened tables BenchmarkFlattenedLookup
// times and TestFlattenedLookupDoesNotAllocate holds to zero
// allocations: one dense node, and scattered pages in lazily
// materialized chunks across 64 nodes.
var lookupPopulations = []struct {
	name     string
	memBytes uint64
	populate func(testing.TB, Table) []addr.V
}{
	{"dense", 1 << 30, benchTable},
	{"sparse", 1 << 32, benchSparseTable},
}

func BenchmarkFlattenedLookup(b *testing.B) {
	for _, p := range lookupPopulations {
		b.Run(p.name, func(b *testing.B) {
			t := NewFlattened(phys.New(p.memBytes))
			addrs := p.populate(b, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Lookup(addrs[i&4095].Page())
			}
		})
	}
}

func BenchmarkFlattenedPresent(b *testing.B) {
	t := NewFlattened(phys.New(1 << 30))
	addrs := benchTable(b, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Present(addrs[i&4095].Page())
	}
}

// referenceSweep populates the reference sweep: a dense 1 GB region
// plus 2^14 scattered pages across 63 more. Its metadata per mapped
// page is what TestFlattenedSparseNodeMetadataBudget bounds.
func referenceSweep() *Flattened {
	t := NewFlattened(phys.New(1 << 32))
	t.MapRange(0, addr.FlatEntries, 0) // dense 1 GB
	rng := xrand.New(5)
	for j := 0; j < 1<<14; j++ { // sparse tail over 63 GB
		region := (1 + rng.Uint64n(63)) << 18
		t.Map(addr.VPN(region+rng.Uint64n(addr.FlatEntries)), addr.PFN(j))
	}
	return t
}

// metadataPerPage is a table's resident lookup metadata per mapped page.
func metadataPerPage(t Table) float64 {
	return float64(t.MetadataBytes()) / float64(t.MappedPages())
}

// BenchmarkFlattenedReferenceSweep times building the reference sweep
// and reports its resident metadata per mapped page.
func BenchmarkFlattenedReferenceSweep(b *testing.B) {
	var perPage float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		perPage = metadataPerPage(referenceSweep())
	}
	b.ReportMetric(perPage, "bytes/page")
}
