// Command sharper-bench regenerates the paper's evaluation figures (§4).
//
// Usage:
//
//	sharper-bench -fig 6a          # one panel
//	sharper-bench -fig 7           # all four panels of Fig. 7
//	sharper-bench -fig all         # everything
//	sharper-bench -fig 8a -quick   # fast, low-resolution sweep
//
// Panels: 6a–6d (crash, 0/20/80/100% cross-shard), 7a–7d (Byzantine),
// 8a/8b (scalability, crash/Byzantine), s34 (§3.4 clustered-network
// optimization), ablation (super-primary routing on/off), batching
// (multi-transaction blocks at batch sizes 1/8/16; -json writes the
// machine-readable BENCH_batching.json other tooling tracks), latency
// (per-stage commit-latency breakdown, intra vs cross × loopback vs
// multiregion × batch 1/16, plus the metrics-overhead A/B → BENCH_latency.json;
// -assert-overhead makes the overhead budget a hard failure), saturation
// (open-loop offered-load ladder, both fabrics × batch 1/16,
// latency-vs-load knee and admission-control sheds → BENCH_saturation.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sharper/internal/bench"
	"sharper/internal/types"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 6a..6d, 7a..7d, 8a, 8b, s34, ablation, skew, batching, persistence, hotpath, wan, latency, saturation, 6, 7, 8, all")
	quick := flag.Bool("quick", false, "small client counts and short windows")
	seed := flag.Int64("seed", 42, "random seed")
	csvPath := flag.String("csv", "", "also append results as CSV to this file")
	jsonPath := flag.String("json", "", "write machine-readable JSON here (batching → BENCH_batching.json, persistence → BENCH_persistence.json, hotpath → BENCH_hotpath.json when unset)")
	assertOverhead := flag.Bool("assert-overhead", false, "with -fig latency: exit nonzero if the metrics overhead exceeds its budget")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run here (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit here (go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	o := bench.FigureOptions{Quick: *quick, Seed: *seed}
	out := os.Stdout
	crossPct := map[byte]int{'a': 0, 'b': 20, 'c': 80, 'd': 100}
	// An explicit -json path is honored only for a directly requested
	// figure: under -fig all, several figures emit JSON and would silently
	// clobber one another at a single path.
	jsonOverride := *jsonPath
	if strings.ToLower(*fig) == "all" {
		jsonOverride = ""
	}

	var csvOut *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csvOut = f
	}
	emit := func(name string, series []bench.Series) {
		if csvOut != nil {
			if err := bench.FprintCSV(csvOut, name, series); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}

	var run func(name string) bool
	run = func(name string) bool {
		switch {
		case len(name) == 2 && name[0] == '6':
			pct, ok := crossPct[name[1]]
			if !ok {
				return false
			}
			emit(name, bench.Figure6(out, pct, o))
		case len(name) == 2 && name[0] == '7':
			pct, ok := crossPct[name[1]]
			if !ok {
				return false
			}
			emit(name, bench.Figure7(out, pct, o))
		case name == "8a":
			emit(name, bench.Figure8(out, types.CrashOnly, o))
		case name == "8b":
			emit(name, bench.Figure8(out, types.Byzantine, o))
		case name == "s34":
			emit(name, bench.Section34(out, o))
		case name == "ablation":
			emit(name, bench.AblationSuperPrimary(out, o))
		case name == "skew":
			emit(name, bench.AblationSkew(out, o))
		case name == "batching":
			writeJSON(out, jsonOverride, "BENCH_batching.json", bench.AblationBatching(out, o))
		case name == "persistence":
			writeJSON(out, jsonOverride, "BENCH_persistence.json", bench.AblationPersistence(out, o))
		case name == "hotpath":
			writeJSON(out, jsonOverride, "BENCH_hotpath.json", bench.AblationHotpath(out, o))
		case name == "wan":
			writeJSON(out, jsonOverride, "BENCH_wan.json", bench.AblationWAN(out, o))
		case name == "saturation":
			writeJSON(out, jsonOverride, "BENCH_saturation.json", bench.AblationSaturation(out, o))
		case name == "latency":
			rep := bench.AblationLatency(out, o)
			writeJSON(out, jsonOverride, "BENCH_latency.json", rep)
			if *assertOverhead && rep.MetricsOverheadPct > rep.OverheadBudgetPct {
				fmt.Fprintf(os.Stderr, "metrics overhead %.2f%% exceeds the %.0f%% budget\n",
					rep.MetricsOverheadPct, rep.OverheadBudgetPct)
				os.Exit(1)
			}
		case name == "6":
			for _, p := range []string{"6a", "6b", "6c", "6d"} {
				run(p)
			}
		case name == "7":
			for _, p := range []string{"7a", "7b", "7c", "7d"} {
				run(p)
			}
		case name == "8":
			run("8a")
			run("8b")
		case name == "all":
			for _, p := range []string{"6", "7", "8", "s34", "ablation", "skew", "batching", "persistence", "hotpath", "wan", "latency", "saturation"} {
				run(p)
			}
		default:
			return false
		}
		return true
	}

	if !run(strings.ToLower(*fig)) {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
}

// writeJSON writes results to the explicit -json path, or to the figure's
// default file when -json was not given.
func writeJSON(out *os.File, path, fallback string, results interface{}) {
	if path == "" {
		path = fallback
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "# wrote %s\n", path)
}
