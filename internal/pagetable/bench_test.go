package pagetable

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// benchTable populates a table with mixed dense+sparse mappings.
func benchTable(b *testing.B, t Table) []addr.V {
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
func benchSparseTable(b *testing.B, t Table) []addr.V {
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

func BenchmarkFlattenedLookup(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		t := NewFlattened(phys.New(1 << 30))
		addrs := benchTable(b, t)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Lookup(addrs[i&4095].Page())
		}
	})
	b.Run("sparse", func(b *testing.B) {
		t := NewFlattened(phys.New(1 << 32))
		addrs := benchSparseTable(b, t)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Lookup(addrs[i&4095].Page())
		}
	})
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

// BenchmarkFlattenedReferenceSweep populates the reference sweep — a
// dense 1 GB region plus scattered pages across 63 more — and reports
// resident metadata per mapped page, the bytes_per_mapped_page metric
// scripts/bench.sh records and gates.
func BenchmarkFlattenedReferenceSweep(b *testing.B) {
	var perPage float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := NewFlattened(phys.New(1 << 32))
		t.MapRange(0, addr.FlatEntries, 0) // dense 1 GB
		rng := xrand.New(5)
		for j := 0; j < 1<<14; j++ { // sparse tail over 63 GB
			region := (1 + rng.Uint64n(63)) << 18
			t.Map(addr.VPN(region+rng.Uint64n(addr.FlatEntries)), addr.PFN(j))
		}
		perPage = float64(t.MetadataBytes()) / float64(t.MappedPages())
	}
	b.ReportMetric(perPage, "bytes/page")
}
