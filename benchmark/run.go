package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseReport is the record of one phase, kept in the result file with its
// raw interval and window series.
//
// The four headline numbers are quartiles, not means: on a shared host,
// interference only ever makes a run slower, so the best quarter of a phase
// says more about the program than its middle does. goodput_tps is the upper
// quartile of the goodput of sampleEvery-long intervals; cpu_ms_per_tx the
// lower quartile of their CPU cost per commit; p50 and p90 latency are the
// lower quartiles, over the seconds of the phase, of each second's p50 and
// p90. A quartile still needs a quarter of the phase to agree with it. The
// whole-phase mean and percentiles are kept beside them.
type phaseReport struct {
	Name        string             `json:"name"`
	Seconds     float64            `json:"seconds"`
	Attempted   int                `json:"attempted"`
	Committed   int                `json:"committed"`
	Rejected    int                `json:"rejected"`
	Shed        int                `json:"shed"`
	Expired     int                `json:"expired"`
	Abandoned   int                `json:"abandoned"`
	FailedCross int                `json:"failed_cross_shard"`
	Lost        []string           `json:"abandoned_examples,omitempty"`
	Marks       map[string]float64 `json:"event_offsets_s,omitempty"`
	Retransmits int                `json:"retransmits"`
	OutMax      int                `json:"outstanding_max"`
	MaxLateMs   float64            `json:"max_late_ms"`

	GoodputTPS float64 `json:"goodput_tps"`
	CPUMsPerTx float64 `json:"cpu_ms_per_tx"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`

	MeanTPS   float64 `json:"whole_phase_mean_tps"`
	P50AllMs  float64 `json:"whole_phase_p50_ms"`
	P99AllMs  float64 `json:"whole_phase_p99_ms"`
	P999AllMs float64 `json:"whole_phase_p99_9_ms"`
	BeyondP99 int     `json:"samples_beyond_p99"`

	IntervalTPS []float64 `json:"interval_tps"`
	IntervalCPU []float64 `json:"interval_cpu_ms_per_tx"`
	WindowP50   []float64 `json:"window_p50_ms"`
	WindowP90   []float64 `json:"window_p90_ms"`
}

func (p *phase) report() phaseReport {
	lat := sortedCopy(p.lat)
	tps, cpu := intervalRates(p.samples)
	w50 := windowPercentiles(p.dueSec, p.lat, p.length.Seconds(), 50)
	w90 := windowPercentiles(p.dueSec, p.lat, p.length.Seconds(), 90)
	_, goodput := quartiles(tps)
	cost, _ := quartiles(cpu)
	p50, _ := quartiles(w50)
	p90, _ := quartiles(w90)
	r := phaseReport{
		Name:        p.name,
		Seconds:     p.length.Seconds(),
		Attempted:   p.attempted,
		Committed:   p.outcomes[committed],
		Rejected:    p.outcomes[rejected],
		Shed:        p.outcomes[shed],
		Expired:     p.outcomes[expired],
		Abandoned:   p.outcomes[abandoned],
		FailedCross: p.failedCross,
		Lost:        p.lost,
		Retransmits: p.retransmits,
		OutMax:      p.outMax,
		MaxLateMs:   float64(p.maxLate) / float64(time.Millisecond),
		GoodputTPS:  goodput,
		CPUMsPerTx:  cost,
		P50Ms:       p50,
		P90Ms:       p90,
		P50AllMs:    percentile(lat, 50),
		P99AllMs:    percentile(lat, 99),
		P999AllMs:   percentile(lat, 99.9),
		BeyondP99:   beyond(len(lat), 99),
		IntervalTPS: tps,
		IntervalCPU: cpu,
		WindowP50:   w50,
		WindowP90:   w90,
	}
	for name, at := range p.marks {
		if r.Marks == nil {
			r.Marks = make(map[string]float64)
		}
		r.Marks[name] = at.Sub(p.start).Seconds()
	}
	if n := len(p.samples); n > 1 {
		last := p.samples[n-1]
		r.MeanTPS = float64(last.committed) / last.atSec
	}
	return r
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	DataFS    string             `json:"data_fs,omitempty"`
	Constants map[string]any     `json:"constants"`
	Phases    []phaseReport      `json:"phases"`
	SetupS    []float64          `json:"setup_rounds_s"`
	EndToEnd  map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Noisy     []string           `json:"noisy,omitempty"`
	Stray     int                `json:"stray_replies"`
	Notes     map[string]float64 `json:"notes,omitempty"`
}

// constants records every rate, window and share that shaped the run.
func (w workload) constants(seconds float64) map[string]any {
	return map[string]any{
		"clusters": w.clusters, "f": 1, "byzantine": w.byzantine, "batch": w.batch,
		"cross_per_mille_open": w.crossOpen, "cross_per_mille_closed": w.crossClosed, "durable": w.durable, "window": w.window,
		"open_rate": w.openRate, "open_cap": openCap, "crash": w.crash, "ref_clusters": w.refClusters,
		"ref_window": w.refWindow, "accounts_per_shard": accountsPerShard,
		"resend_every_ms": resendEvery.Milliseconds(), "abandon_after_ms": abandonAfter.Milliseconds(),
		"sample_every_ms": sampleEvery.Milliseconds(), "setup_rounds": setupRounds,
		"warmup_s":        seconds * warmupShare,
		"closed_s":        seconds * closedShare,
		"open_s":          seconds * openShare,
		"traced_ref_s":    seconds * tracedRefShare,
		"traced_closed_s": seconds * tracedClosedShare,
		"traced_open_s":   seconds * tracedOpenShare,
		"crash_at_share":  crashAt, "restart_at_share": restartAt,
	}
}

// runOptions are one invocation's inputs.
type runOptions struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	scratch string // directory for durable data and probe files
	outDir  string // directory for the trace file
}

// openPhase runs the workload's open phase; a crash workload loses cluster 0's
// home gateway part-way and gets it back, restarted, a little later.
func (s *system) openPhase(length time.Duration, traced bool) *phase {
	s.drv.gen.crossPerMille = s.w.crossOpen
	var events []event
	if s.w.crash {
		at := func(share float64) time.Duration { return time.Duration(float64(length) * share) }
		events = []event{
			{"crash", at(crashAt), s.crashGateway},
			{"restart", at(restartAt), s.restartGateway},
		}
	}
	return s.drv.runOpen("open", s.w.openRate, length, traced, events)
}

// closedPhase runs a closed phase with the workload's closed-phase mix.
func (s *system) closedPhase(name string, window int, length time.Duration, traced bool) *phase {
	s.drv.gen.crossPerMille = s.w.crossClosed
	return s.drv.runClosed(name, window, length, traced)
}

// warmup sends at the open phase's rate, uncounted: connections, caches and
// the heap settle before anything is timed.
func (s *system) warmup(length time.Duration) {
	s.drv.runOpen("warmup", s.w.openRate, length, false, nil)
}

// unavailableMs is the time from the crash to the first verdict for a
// cluster-0 request that was due after it; 0 when the phase had no crash.
func (p *phase) unavailableMs() float64 {
	crash, ok := p.marks["crash"]
	if !ok || len(p.afterCrash) == 0 {
		return 0
	}
	first := p.afterCrash[0]
	for _, t := range p.afterCrash[1:] {
		if t.Before(first) {
			first = t
		}
	}
	return float64(first.Sub(crash)) / float64(time.Millisecond)
}

// runUntraced is the run the end-to-end metrics come from: set-up (several
// rounds), warm-up, open phase, closed phase, audit.
func runUntraced(o runOptions) (*result, error) {
	res := newResult(o)
	// A set-up allocates 100 to 200 MB into a heap that is nearly empty, so
	// with the collector on each round holds three or four collections, and
	// how long those take swings with the state of the host: the same rounds
	// spread 25-30 % with the collector on and 5-8 % with it off. The rounds
	// therefore run with it off, each followed by a full collection outside
	// the timing; setup_s is the work of setting up, without collector cycles.
	gcPercent := debug.SetGCPercent(-1)
	var sys *system
	for round := 0; round < setupRounds; round++ {
		if sys != nil {
			sys.stop()
			runtime.GC()
		}
		var took time.Duration
		var err error
		sys, took, err = start(o.w, o.w.clusters, o.seed, o.scratch, round)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, took.Seconds())
	}
	debug.SetGCPercent(gcPercent)
	defer sys.stop()
	if sys.dataDir != "" {
		res.DataFS = fsType(sys.dataDir)
	}

	// The open phase comes first because it is a fixed amount of work (rate ×
	// length requests), so the heap read after it does not grow just because
	// a faster system committed more transactions in the closed phase.
	sys.warmup(share(o.seconds, warmupShare))
	ticks := readCPUTicks()
	open := sys.openPhase(share(o.seconds, openShare), false)
	heap := liveHeapMiB()
	closed := sys.closedPhase("closed", o.w.window, share(o.seconds, closedShare), false)
	steal := stealShare(ticks, readCPUTicks())

	sys.quiesce()
	sys.halt()
	if err := sys.audit(); err != nil {
		return nil, err
	}
	res.Correct = true
	res.Stray = sys.drv.stray

	cr, or := closed.report(), open.report()
	res.Phases = []phaseReport{or, cr}
	res.Attempted = cr.Attempted + or.Attempted
	res.Failed = closed.failed() + open.failed()
	res.EndToEnd = map[string]metric{
		"goodput_tps":   {cr.GoodputTPS, "tx/s"},
		"commit_p50_ms": {or.P50Ms, "ms"},
		"commit_p90_ms": {or.P90Ms, "ms"},
		"cpu_ms_per_tx": {cr.CPUMsPerTx, "ms"},
		"setup_s":       {median(res.SetupS), "s"},
		"live_heap_mb":  {heap, "MiB"},
	}
	res.Notes = map[string]float64{
		"host.steal_share":       steal,
		"driver.max_late_ms":     or.MaxLateMs,
		"driver.failed_share":    float64(res.Failed) / float64(res.Attempted),
		"driver.commit_p99_ms":   or.P99AllMs,
		"driver.commit_p99_9_ms": or.P999AllMs,
		"driver.open_samples":    float64(len(open.lat)),
		"driver.unavailable_ms":  open.unavailableMs(),
		"runtime.peak_rss_mb":    peakRSSMiB(),
	}
	res.flagNoise(steal, or.MaxLateMs)
	return res, nil
}

func newResult(o runOptions) *result {
	return &result{
		Workload:  o.w.name,
		Why:       o.w.why,
		Seed:      o.seed,
		Seconds:   o.seconds,
		Traced:    o.trace,
		Host:      readHost(),
		Constants: o.w.constants(o.seconds),
	}
}

// flagNoise marks a run whose host or generator was visibly disturbed. The
// run is still reported: the flag tells the reader how far to trust it.
func (r *result) flagNoise(steal, maxLateMs float64) {
	if steal > noisySteal {
		r.Noisy = append(r.Noisy, fmt.Sprintf("host.steal_share %.3f > %.2f", steal, noisySteal))
	}
	if maxLateMs > noisyLateMs {
		r.Noisy = append(r.Noisy, fmt.Sprintf("driver.max_late_ms %.1f > %.0f", maxLateMs, noisyLateMs))
	}
}

// scratchDir creates a per-process directory under .bench_build for durable
// data and probe files, inside the checkout the benchmark was started from.
func scratchDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
