// Command ndpexp regenerates the paper's evaluation: every figure and
// table of the NDPage paper (DATE 2025), printed as aligned text and
// written as CSV under -out.
//
// Usage:
//
//	ndpexp                         # all figures, full scale (minutes)
//	ndpexp -quick                  # all figures, reduced scale
//	ndpexp -figs fig12,fig14       # a subset
//	ndpexp -figs mlp-sensitivity   # the core-MLP sweep (non-blocking cores)
//	ndpexp -workloads rnd,pr,gen   # a workload subset
//	ndpexp -cache results/.cache   # persist runs; re-runs simulate nothing new
//
// With -cache, every simulation's result lands in the cache directory
// keyed by its configuration's content hash, so an interrupted
// regeneration (Ctrl-C cancels cleanly) resumes where it stopped and
// repeated regenerations at the same budgets perform zero simulations.
// Several ndpexp processes may share one cache directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"ndpage"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced scale (faster, noisier)")
		figsArg   = flag.String("figs", "all", "comma-separated: fig4,fig5,fig6,fig7,fig8,motivation,pwc,fig12,fig13,fig14,ablation (plus extras: mechanism-comparison,pwc-sensitivity,hbm-sensitivity,walker-sensitivity,mlp-sensitivity,population-sensitivity,oversubscription)")
		wlArg     = flag.String("workloads", "", "comma-separated workload subset: builtin names or trace:<file> replays (default: all 11)")
		outDir    = flag.String("out", "results", "directory for CSV output (empty = no files)")
		cacheDir  = flag.String("cache", "", "persistent run cache directory (empty = in-memory only)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (0 = auto)")
		instr     = flag.Uint64("instructions", 0, "measured ops per core (0 = default)")
		footprint = flag.Uint64("footprint", 0, "dataset bytes (0 = scaled default)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	e := &ndpage.Experiments{
		Instructions: *instr,
		Footprint:    *footprint,
		Parallel:     *parallel,
		Progress:     os.Stderr,
		Context:      ctx,
	}
	if *cacheDir != "" {
		store, err := openCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		e.Cache = store
	}
	if *quick {
		if e.Instructions == 0 {
			e.Instructions = 60_000
		}
		e.Warmup = 10_000
	}
	if *wlArg != "" {
		e.Workloads = strings.Split(*wlArg, ",")
	}

	type figure struct {
		name string
		run  func() (*ndpage.Table, error)
	}
	figures := []figure{
		{"fig4", e.Fig4}, {"fig5", e.Fig5}, {"fig6", e.Fig6},
		{"fig7", e.Fig7}, {"fig8", e.Fig8},
		{"motivation", e.Motivation}, {"pwc", e.PWCRates},
		{"fig12", e.Fig12}, {"fig13", e.Fig13}, {"fig14", e.Fig14},
		{"ablation", e.Ablation},
	}
	extras := []figure{
		{"mechanism-comparison", e.MechanismComparison},
		{"pwc-sensitivity", e.PWCSensitivity},
		{"hbm-sensitivity", e.HBMChannelSensitivity},
		{"walker-sensitivity", e.WalkerWidthSensitivity},
		{"mlp-sensitivity", e.MLPSensitivity},
		{"population-sensitivity", e.PopulationSensitivity},
		{"oversubscription", e.OversubscriptionStudy},
	}
	if *figsArg != "all" {
		figures = append(figures, extras...)
	}

	want := map[string]bool{}
	if *figsArg != "all" {
		for _, f := range strings.Split(*figsArg, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	for _, f := range figures {
		if len(want) > 0 && !want[f.name] {
			continue
		}
		t0 := time.Now()
		tab, err := f.run()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tab)
		fmt.Printf("[%s in %v]\n\n", f.name, time.Since(t0).Round(time.Millisecond))
		if *outDir != "" {
			path := filepath.Join(*outDir, f.name+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("total %v\n", time.Since(start).Round(time.Second))
}

// openCache opens the -cache directory. A URL is refused rather than
// taken as a relative path, which would silently create a directory
// tree named after it.
func openCache(arg string) (ndpage.Store, error) {
	if strings.Contains(arg, "://") {
		return nil, fmt.Errorf("-cache takes a directory, not a URL: %q", arg)
	}
	store, err := ndpage.NewDirStore(arg)
	if err != nil {
		return nil, err
	}
	return store, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndpexp:", err)
	os.Exit(1)
}
