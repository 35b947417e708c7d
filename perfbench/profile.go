package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// shareLayers are the layers whose profile shares the traced run
// reports: the internal/ packages that execute inside sim.New or
// Machine.Run, the Go runtime, and everything else ("other": the
// standard library outside the runtime). Packages that never run
// inside the two phases (exp, sweep, fault, serve) have no share, nor
// does access, which holds only constants and inlined methods.
var shareLayers = []string{
	"addr", "assoc", "bitset", "cache", "core", "dram", "engine", "memsys", "noc",
	"osmm", "pagetable", "phys", "pwc", "resource", "sim", "stats", "tlb", "walker",
	"workload", "xrand", "runtime", "other",
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	const module = "ndpage/internal/"
	if rest, ok := strings.CutPrefix(fn, module); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileCounts holds CPU-profile self samples by phase label and
// layer; samples outside both phases carry phase "".
type profileCounts map[string]map[string]int64

// phaseFilters select each phase's samples by their "phase" label.
var phaseFilters = map[string]string{
	"setup": "-tagfocus=phase=^setup$",
	"run":   "-tagfocus=phase=^run$",
	"":      "-tagignore=phase=.",
}

// countProfiles reads the CPU profiles with `go tool pprof` and
// counts their self samples by phase and layer.
func countProfiles(files []string) (profileCounts, error) {
	c := profileCounts{}
	for phase, filter := range phaseFilters {
		layers, err := pprofTop(files, filter)
		if err != nil {
			return nil, err
		}
		c[phase] = layers
	}
	return c, nil
}

// pprofTop runs `go tool pprof -top` over the profiles, keeping the
// samples the filter selects, and sums the flat (self) sample counts
// of every function by layer.
func pprofTop(files []string, filter string) (map[string]int64, error) {
	args := append([]string{"tool", "pprof", "-symbolize=none", "-sample_index=samples", "-top",
		"-nodecount=0", "-nodefraction=0", "-edgefraction=0", filter}, files...)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", filter, err, stderr.Bytes())
	}
	layers := map[string]int64{}
	var want, sum int64
	table := false
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case table && len(f) >= 6:
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("go tool pprof %s: bad row %q", filter, line)
			}
			layers[layerOf(strings.Join(f[5:], " "))] += n
			sum += n
		case len(f) > 0 && f[0] == "flat":
			table = true
		case strings.HasPrefix(line, "Showing nodes accounting for "):
			n, _, _ := strings.Cut(strings.TrimPrefix(line, "Showing nodes accounting for "), ",")
			var err error
			if want, err = strconv.ParseInt(n, 10, 64); err != nil {
				return nil, fmt.Errorf("go tool pprof %s: bad summary %q", filter, line)
			}
		}
	}
	if sum != want {
		return nil, fmt.Errorf("go tool pprof %s: rows sum to %d samples, summary says %d", filter, sum, want)
	}
	return layers, nil
}

// samples counts the phase's self samples.
func (c profileCounts) samples(phase string) int64 {
	var total int64
	for _, n := range c[phase] {
		total += n
	}
	return total
}

// share returns the layer's fraction of the phase's self samples.
func (c profileCounts) share(phase, layer string) float64 {
	total := c.samples(phase)
	if total == 0 {
		return 0
	}
	return float64(c[phase][layer]) / float64(total)
}

// total counts all samples.
func (c profileCounts) total() int64 {
	var n int64
	for phase := range c {
		n += c.samples(phase)
	}
	return n
}
