// Command perfbench is the repository's benchmark: it runs one named
// workload through the simulator's sweep and figure path for a fixed
// time, checks that the simulated results are correct, and prints
// every end-to-end metric (or, with -trace 1, every per-layer metric)
// as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": 55, "failed": 0, "metrics": {"wall_s": {"value": 9.8, "unit": "s"}, ...}}
//
// Run it from the repository root with perfbench/run.sh, which builds
// it first; README.md beside this file explains the workloads and how
// to read the traced output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tiny     bool
	out      string
	workers  int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: fig12-ndp, manycore-mlp or cpu-demand")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed simulates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measure passes for about this many seconds (at least one pass)")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "run each workload at a tiny scale (the benchmark's own test)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench", "trace"), "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.trace = trace == 1
	// One process, at most two sweep workers: the parallelism exp's
	// figure runner picks on a two-CPU host, and never more than the
	// host's CPUs.
	o.workers = min(2, runtime.NumCPU())
	return o, nil
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "host %s %s/%s GOMAXPROCS=%d workers=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), o.workers)
	// Seed 0 would select the simulator's default seed, so the workload
	// seed is shifted by one: every -seed value simulates distinct inputs.
	seed := o.seed + 1
	problems := []string{}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		problems = append(problems, msg)
		fmt.Fprintln(stdout, "CHECK FAILED:", msg)
	}

	// Passes run until the time is up. With -trace 1 the first pass is
	// an untraced warm-up; then traced passes (spans and a CPU profile
	// with phase labels) alternate with untraced ones, which are the
	// baseline for the tracing overhead.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var profiles [][]byte
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var passes []passResult
	for {
		traced := o.trace && len(passes)%2 == 1
		// Every pass starts from a collected heap whose free pages are
		// returned to the OS, with the peak-RSS count restarted from that
		// resident set, so one pass's garbage does not raise the next
		// pass's peak.
		debug.FreeOSMemory()
		resetPeakRSS()
		var p passResult
		if traced {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				fmt.Fprintln(stderr, "perfbench: cpu profile:", err)
				return 1
			}
			p = runPass(w, o.tiny, seed, o.workers, tr)
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		} else {
			p = runPass(w, o.tiny, seed, o.workers, nil)
		}
		p.peakRSSMB = peakRSSMB()
		passes = append(passes, p)
		tag := ""
		if traced {
			tag = " (traced)"
		}
		fmt.Fprintf(stdout, "pass %d%s: wall %.3fs setup %.3fs run %.3fs %.0f sim-instr/s peak %.1f MB, %d configs, %d failed\n",
			len(passes), tag, p.wall.Seconds(), p.setup.Seconds(), p.run.Seconds(), p.instrPerSec(),
			p.peakRSSMB, p.attempted, p.failed)
		if p.err != nil {
			fail("pass %d: %v", len(passes), p.err)
			break
		}
		if o.trace && len(passes) < 3 {
			continue
		}
		typical := medianOf(passes, func(p passResult) float64 { return p.wall.Seconds() })
		if time.Since(start).Seconds()+typical > budget.Seconds() {
			break
		}
	}

	attempted, failed := 0, 0
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
	}
	first := passes[0]

	// Correctness: every pass simulated the same statistics, each
	// configuration's invariants hold, the probe workload's column
	// reruns byte-identically, and (figure workload) the figure rebuilt from
	// the store equals the pass's.
	var dig string
	for i, p := range passes {
		d, err := digest(p.results)
		if err != nil {
			fail("digest: %v", err)
		}
		if i == 0 {
			dig = d
		} else if d != dig {
			fail("pass %d digest %s differs from pass 1's %s", i+1, d, dig)
		}
	}
	fmt.Fprintf(stdout, "digest %s seed %d: %s\n", w.name, o.seed, dig)
	for _, r := range first.results {
		if r == nil {
			continue
		}
		for _, msg := range checkInvariants(r) {
			fail("%s", msg)
		}
	}
	cells, allocs, err := rerun(w, o.tiny, seed, first)
	attempted += cells
	if err != nil {
		fail("rerun: %v", err)
	}
	gap := -1.0 // no paper anchor outside the Figure 12 workload
	if w.figure && first.err == nil {
		fmt.Fprint(stdout, first.table.String())
		if gap, err = checkFigure(w, o.tiny, seed, first); err != nil {
			fail("%v", err)
		}
	}
	fmt.Fprintf(stdout, "ops_failed_frac %g (%d of %d configs)\n", float64(failed)/float64(attempted), failed, attempted)
	if w.figure {
		fmt.Fprintf(stdout, "paper_gap_pct %g %%\n", gap)
	}

	var metrics map[string]metric
	if !o.trace {
		metrics = endToEnd(passes, allocs)
	} else if metrics, err = perLayer(w, o, seed, passes, tr, profiles, gap); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run whose passes failed gets here; JSON has no NaN.
			fail("metric %s is %v", k, m.Value)
			m.Value = 0
			metrics[k] = m
		}
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", k, m.Value, m.Unit)
	}
	b, err := json.Marshal(report{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// medianOf returns the median of f over the passes.
func medianOf(passes []passResult, f func(passResult) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// resetPeakRSS restarts the kernel's count of the process's peak
// resident set, which getrusage reports, so that the next read covers
// only what follows. Where /proc refuses the reset, the count runs on
// from the process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// endToEnd computes the end-to-end metrics: medians over the passes.
func endToEnd(passes []passResult, allocsPerKinstr float64) map[string]metric {
	return map[string]metric{
		"wall_s":            {medianOf(passes, func(p passResult) float64 { return p.wall.Seconds() }), "s"},
		"setup_s":           {medianOf(passes, func(p passResult) float64 { return p.setup.Seconds() }), "s"},
		"sim_instr_per_s":   {medianOf(passes, passResult.instrPerSec), "instr/s"},
		"peak_rss_mb":       {medianOf(passes, func(p passResult) float64 { return p.peakRSSMB }), "MB"},
		"allocs_per_kinstr": {allocsPerKinstr, "allocs/kinstr"},
	}
}

// perLayer computes the per-layer metrics of a traced run: profile
// shares and span fractions from the traced passes, the layer
// replays, the simulated statistics, and the tracing overhead.
func perLayer(w *workloadDef, o options, seed uint64, passes []passResult, tr *tracer, profiles [][]byte, gapPct float64) (map[string]metric, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	files := make([]string, len(profiles))
	for i, prof := range profiles {
		files[i] = fmt.Sprintf("%s.pass%d.pprof", base, 2*i+2)
		if err := os.WriteFile(files[i], prof, 0o644); err != nil {
			return nil, err
		}
	}

	out := map[string]metric{}
	counts, err := countProfiles(files)
	if err != nil {
		return nil, err
	}
	for _, layer := range shareLayers {
		out[layer+".setup_share"] = metric{counts.share("setup", layer), "fraction"}
		out[layer+".run_share"] = metric{counts.share("run", layer), "fraction"}
	}
	// A phase's shares are only as fine as its sample count: at 100
	// samples per second, a phase of a few hundred milliseconds yields a
	// few dozen samples.
	out["profile.setup_samples"] = metric{float64(counts.samples("setup")), "count"}
	out["profile.run_samples"] = metric{float64(counts.samples("run")), "count"}
	out["runtime.unlabelled_share"] = metric{ratio(float64(counts[""]["runtime"]), float64(counts.total())), "fraction"}

	var traced, untraced []float64
	var tracedWall time.Duration
	for i, p := range passes {
		if i == 0 {
			continue // the warm-up
		}
		if p.traced {
			traced = append(traced, p.instrPerSec())
			tracedWall += p.wall
		} else {
			untraced = append(untraced, p.instrPerSec())
		}
	}
	workerSecs := float64(o.workers) * tracedWall.Seconds()
	setupFrac := tr.busy("setup").Seconds() / workerSecs
	runFrac := tr.busy("run").Seconds() / workerSecs
	out["sweep.setup_frac"] = metric{setupFrac, "fraction"}
	out["sweep.run_frac"] = metric{runFrac, "fraction"}
	out["sweep.idle_frac"] = metric{1 - setupFrac - runFrac, "fraction"}
	out["trace.overhead_frac"] = metric{1 - median(traced)/median(untraced), "fraction"}

	ns, err := replays(w.probe(o.tiny, seed), tr)
	if err != nil {
		return nil, err
	}
	for k, v := range ns {
		out[k] = metric{v, "ns"}
	}
	for k, v := range simulatedMetrics(passes[0].results) {
		out[k] = v
	}
	out["paper_gap_pct"] = metric{gapPct, "%"}
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return nil, err
	}
	return out, nil
}
