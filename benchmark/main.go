// Command benchmark is the repository's one repeatable benchmark: four
// workloads, six gated end-to-end metrics, a per-layer cost budget and a
// traced run. See README.md in this directory.
//
//	bash benchmark/run.sh --workload scaleout_crash --seed 42 --seconds 24 --trace 0
//	bash benchmark/run.sh                  # every workload, untraced then traced
//	bash benchmark/run.sh -repeat 5        # five full sets, spread per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 24

func main() {
	name := flag.String("workload", "", "workload to run in this process (default: all four, each in a fresh process)")
	seed := flag.Int64("seed", 42, "seed for the generated inputs and the deployment's keys and jitter")
	seconds := flag.Float64("seconds", defaultSeconds, "how long the run measures")
	trace := flag.Int("trace", -1, "0: end-to-end metrics; 1: traced run, layer probes and run counters (default: 0 with -workload, both without)")
	repeat := flag.Int("repeat", 1, "without -workload: run this many full sets and print each metric's spread")
	smoke := flag.Bool("smoke", false, "2 s of phases in all: checks the plumbing, measures nothing")
	flag.Parse()

	if err := enterRoot(); err != nil {
		fatal(err)
	}
	if *smoke {
		*seconds = 2
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *name == "" {
		if err := runSets(*repeat, *seed, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
	}
	scratch, err := scratchDir()
	if err != nil {
		fatal(err)
	}
	o := runOptions{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: scratch, outDir: filepath.Join("benchmark", "out")}
	run := runUntraced
	if o.trace {
		run = runTraced
	}
	res, err := run(o)
	os.RemoveAll(scratch)
	if err != nil {
		// No metric is reported from an invalid run.
		fatal(err)
	}
	res.print(os.Stdout)
	if err := res.save(o.outDir); err != nil {
		fatal(err)
	}
	res.printContractLine(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// enterRoot changes to the root of the checkout, so that .bench_build/ and
// benchmark/out/ resolve the same whether the benchmark was started there
// (run.sh) or in its own directory (go run .).
func enterRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "benchmark", "surface.go")); err == nil {
			return os.Chdir(dir)
		}
	}
	return fmt.Errorf("start the benchmark from the root of the checkout or from benchmark/")
}

// metrics returns the set the contract line carries for this kind of run.
func (r *result) metrics() map[string]metric {
	if r.Traced {
		return r.PerLayer
	}
	return r.EndToEnd
}

// print writes the human-readable report: every metric by name with its
// unit, the phases behind them, and the noise flag.
func (r *result) print(w *os.File) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0f s  %s ==\n", r.Workload, r.Seed, r.Seconds, kind)
	fmt.Fprintf(w, "   %s\n", r.Why)
	fmt.Fprintf(w, "   host: %d cpus, GOMAXPROCS %d, %s, kernel %s, rev %s\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Kernel, r.Host.GitRev)
	if r.DataFS != "" {
		fmt.Fprintf(w, "   data dir on %s\n", r.DataFS)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "   phase %-14s %5.1f s  attempted %6d  committed %6d  failed %d (%d cross-shard)  retransmits %d  outstanding max %d\n",
			p.Name, p.Seconds, p.Attempted, p.Committed, p.Rejected+p.Shed+p.Expired+p.Abandoned, p.FailedCross, p.Retransmits, p.OutMax)
		fmt.Fprintf(w, "        goodput %.1f tx/s (mean %.1f)   cpu %.4f ms/tx   latency p50 %.2f p90 %.2f ms   whole phase: p50 %.2f p99 %.2f p99.9 %.2f ms (%d samples, %d beyond p99)   generator late ≤ %.2f ms\n",
			p.GoodputTPS, p.MeanTPS, p.CPUMsPerTx, p.P50Ms, p.P90Ms, p.P50AllMs, p.P99AllMs, p.P999AllMs, p.Committed, p.BeyondP99, p.MaxLateMs)
		for _, name := range sortedKeys(p.Marks) {
			fmt.Fprintf(w, "        event %s at %.3f s\n", name, p.Marks[name])
		}
		for _, l := range p.Lost {
			fmt.Fprintf(w, "        abandoned: %s\n", l)
		}
	}
	printMetrics(w, r.metrics())
	if len(r.Notes) > 0 {
		fmt.Fprintln(w, "   also measured (not part of this run's metric set):")
		for _, k := range sortedKeys(r.Notes) {
			fmt.Fprintf(w, "     %-28s %14.4f\n", k, r.Notes[k])
		}
	}
	if len(r.Budget) > 0 {
		printBudget(w, r.Budget)
	}
	fmt.Fprintf(w, "   attempted %d  failed %d  stray replies %d  correctness gate: passed\n", r.Attempted, r.Failed, r.Stray)
	for _, why := range r.Noisy {
		fmt.Fprintf(w, "   NOISY: %s\n", why)
	}
}

func printMetrics(w *os.File, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "   %-36s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// save writes the full result, provenance and raw samples included, next to
// the traces.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "run"
	if r.Traced {
		kind = "traced"
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.%s.json", r.Workload, kind)), data, 0o644)
}

// printContractLine writes the one JSON object the accepting driver reads,
// as the last line of standard output.
func (r *result) printContractLine(w *os.File) {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.metrics()})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
