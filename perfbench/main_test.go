package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the tiny scale and returns its output
// lines and the parsed last line.
func runTiny(t *testing.T, workload, seed, trace string) ([]string, report) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace,
		"--tiny", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line is not the JSON result: %v", args, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, stdout.String())
	}
	return lines, r
}

// lineWith returns the output's first line that starts with prefix.
func lineWith(t *testing.T, lines []string, prefix string) string {
	t.Helper()
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line", prefix)
	return ""
}

// TestWorkloadsTiny runs every workload of BENCHMARK.json at the tiny
// scale, untraced and traced: each prints exactly its named metrics
// with their units and its ops_failed_frac line (and the figure
// workload its paper_gap_pct line), its checks pass, and the same seed
// repeats the simulated-results digest while another seed changes it.
func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			lines, r := runTiny(t, w.Name, "7", "0")
			if len(r.Metrics) != len(s.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, want %d", len(r.Metrics), len(s.EndToEnd))
			}
			for _, m := range s.EndToEnd {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			lineWith(t, lines, "ops_failed_frac ")
			if def, _ := lookupWorkload(w.Name); def.figure {
				lineWith(t, lines, "paper_gap_pct ")
			}

			tlines, tr := runTiny(t, w.Name, "7", "1")
			if len(tr.Metrics) != len(s.PerLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(tr.Metrics), len(s.PerLayer))
			}
			for _, m := range s.PerLayer {
				if got, ok := tr.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}

			d := lineWith(t, lines, "digest ")
			if td := lineWith(t, tlines, "digest "); td != d {
				t.Errorf("same seed, different digests:\n%s\n%s", d, td)
			}
			olines, _ := runTiny(t, w.Name, "8", "0")
			if od := lineWith(t, olines, "digest "); strings.Fields(od)[4] == strings.Fields(d)[4] {
				t.Errorf("seeds 7 and 8 simulated identical results: %s", od)
			}
		})
	}
}

// TestBadFlags exits non-zero without a result line.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig12-ndp", "--trace", "2"},
		{"--workload", "fig12-ndp", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
