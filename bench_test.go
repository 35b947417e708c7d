package ndpage_test

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md
// Section 4). Each benchmark regenerates its figure at a reduced scale
// (subset of workloads, smaller windows) and reports the figure's
// headline quantity via b.ReportMetric, so `go test -bench .` both
// exercises the full pipeline and prints the reproduction's key numbers.
// Every benchmark also reports allocations (b.ReportAllocs). Full-scale
// tables come from `go run ./cmd/ndpexp`; the simulator's speed is
// measured by perfbench/.

import (
	"strconv"
	"testing"

	"ndpage"
)

// benchExperiments returns a reduced-scale experiment runner. Three
// workloads cover the three pattern classes: uniform random (rnd), graph
// gather (pr), hot/cold hashing with growth (gen).
func benchExperiments() *ndpage.Experiments {
	return &ndpage.Experiments{
		Instructions: 40_000,
		Warmup:       8_000,
		Footprint:    1 << 30,
		Workloads:    []string{"rnd", "pr", "gen"},
	}
}

// benchTable fails the benchmark on a simulation error and returns the
// table otherwise.
func benchTable(b *testing.B, f func() (*ndpage.Table, error)) *ndpage.Table {
	b.Helper()
	t, err := f()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// cellAt parses the numeric cell at (row, col) of a table. Cells may
// carry a % or x suffix.
func cellAt(b *testing.B, t *ndpage.Table, row, col int) float64 {
	b.Helper()
	s := t.Rows[row][col]
	for len(s) > 0 && (s[len(s)-1] == '%' || s[len(s)-1] == 'x') {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", t.Rows[row][col], err)
	}
	return v
}

// lastCell parses the numeric cell at the given column of a table's last
// (summary) row.
func lastCell(b *testing.B, t *ndpage.Table, col int) float64 {
	b.Helper()
	return cellAt(b, t, len(t.Rows)-1, col)
}

func BenchmarkFig04_PTWLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig4)
		b.ReportMetric(lastCell(b, t, 1), "cpu-ptw-cycles")
		b.ReportMetric(lastCell(b, t, 2), "ndp-ptw-cycles")
	}
}

func BenchmarkFig05_TranslationOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig5)
		b.ReportMetric(lastCell(b, t, 1), "cpu-xlat-pct")
		b.ReportMetric(lastCell(b, t, 2), "ndp-xlat-pct")
	}
}

func BenchmarkFig06_CoreScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig6)
		// Last row is the 8-core row; column 2 is NDP PTW.
		b.ReportMetric(lastCell(b, t, 2), "ndp-ptw-8core")
	}
}

func BenchmarkFig07_CachePollution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig7)
		b.ReportMetric(lastCell(b, t, 1), "data-ideal-miss-pct")
		b.ReportMetric(lastCell(b, t, 2), "data-actual-miss-pct")
		b.ReportMetric(lastCell(b, t, 3), "metadata-miss-pct")
	}
}

func BenchmarkFig08_Occupancy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig8)
		// Report the PL1 occupancy of the last workload row.
		b.ReportMetric(lastCell(b, t, 4), "pl1-occupancy-pct")
		b.ReportMetric(lastCell(b, t, 2), "pl3-occupancy-pct")
	}
}

func BenchmarkMotivation_SectionIVA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		// Motivation rows: TLB miss rate, PTE access share, NDP/CPU PTE
		// DRAM traffic ratio (Section IV-A's three scalars).
		t := benchTable(b, e.Motivation)
		b.ReportMetric(cellAt(b, t, 0, 1), "tlb-miss-pct")
		b.ReportMetric(cellAt(b, t, 1, 1), "pte-share-pct")
		b.ReportMetric(cellAt(b, t, 2, 1), "pte-dram-ratio")
		// PWCRates rows: PL4, PL3, PL2 hit rates (Section V-C).
		p := benchTable(b, e.PWCRates)
		b.ReportMetric(cellAt(b, p, 1, 1), "pwc-pl3-pct")
		b.ReportMetric(cellAt(b, p, 2, 1), "pwc-pl2-pct")
	}
}

func BenchmarkFig12_SingleCoreSpeedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig12)
		b.ReportMetric(lastCell(b, t, 1), "ech-speedup")
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
	}
}

func BenchmarkFig13_QuadCoreSpeedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig13)
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
	}
}

func BenchmarkFig14_OctaCoreSpeedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig14)
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
		b.ReportMetric(lastCell(b, t, 2), "hugepage-speedup")
	}
}

func BenchmarkAblation_NDPageDecomposition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Ablation)
		b.ReportMetric(lastCell(b, t, 1), "bypass-only-speedup")
		b.ReportMetric(lastCell(b, t, 2), "flatten-only-speedup")
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
	}
}

func BenchmarkSensitivity_Oversubscription(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &ndpage.Experiments{
			Instructions: 20_000,
			Warmup:       4_000,
			Footprint:    512 << 20,
		}
		t := benchTable(b, e.OversubscriptionStudy)
		b.ReportMetric(lastCell(b, t, 3), "ndpage-oversub-slowdown")
	}
}
