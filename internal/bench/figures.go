package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"sharper/internal/ahl"
	"sharper/internal/apr"
	"sharper/internal/consensus"
	"sharper/internal/core"
	"sharper/internal/crypto"
	"sharper/internal/fab"
	"sharper/internal/fastpaxos"
	"sharper/internal/obs"
	"sharper/internal/replica"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/types"
	"sharper/internal/workload"
)

// FigureOptions tunes a figure reproduction run.
type FigureOptions struct {
	// Quick shrinks client counts and windows so tests finish fast; the
	// full sweep reproduces the paper's curves.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// AccountsPerShard sizes the seeded genesis state.
	AccountsPerShard int
}

func (o *FigureOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.AccountsPerShard == 0 {
		o.AccountsPerShard = 1024
	}
}

func (o FigureOptions) clients() []int {
	if o.Quick {
		return []int{8, 24}
	}
	return []int{4, 8, 16, 32, 64, 128}
}

func (o FigureOptions) bench() Options {
	if o.Quick {
		return Options{Warmup: 150 * 1e6, Measure: 400 * 1e6} // 150ms / 400ms
	}
	return DefaultOptions()
}

const seedBalance = int64(1) << 40

// workloadFor builds the §4 accounting workload for a given shard count and
// cross-shard percentage.
func workloadFor(shards, crossPct int, o FigureOptions) *workload.Generator {
	return workload.New(workload.Config{
		Shards:           state.ShardMap{NumShards: shards},
		AccountsPerShard: o.AccountsPerShard,
		CrossShardPct:    crossPct,
		ShardsPerCross:   2,
		Amount:           1,
		Seed:             o.Seed,
	})
}

// Figure6 reproduces one panel of Fig. 6: throughput/latency under the
// crash model (12 nodes; SharPer and AHL-C as 4 clusters × 3, APR-C with 3
// active replicas, FPaxos with 4) at the given cross-shard percentage
// (0, 20, 80, or 100 in the paper).
func Figure6(w io.Writer, crossPct int, o FigureOptions) []Series {
	o.fill()
	const clusters, f = 4, 1
	gen := workloadFor(clusters, crossPct, o)
	var series []Series

	series = append(series, runSharPer(types.CrashOnly, clusters, f, gen, o, nil))
	series = append(series, runAHL(types.CrashOnly, clusters, f, gen, o))
	series = append(series, runReplicaBaseline("APR-C", gen, o, func() (*replica.Deployment, error) {
		return apr.NewCrash(12, f, transport.Config{}, o.Seed)
	}))
	series = append(series, runReplicaBaseline("FPaxos", gen, o, func() (*replica.Deployment, error) {
		return fastpaxos.New(12, f, transport.Config{}, o.Seed)
	}))

	Fprint(w, fmt.Sprintf("Figure 6 — crash model, %d%% cross-shard", crossPct), series)
	return series
}

// Figure7 reproduces one panel of Fig. 7: the Byzantine counterpart
// (16 nodes; SharPer and AHL-B as 4 clusters × 4, APR-B with 4 active
// replicas, FaB with 6).
func Figure7(w io.Writer, crossPct int, o FigureOptions) []Series {
	o.fill()
	const clusters, f = 4, 1
	gen := workloadFor(clusters, crossPct, o)
	var series []Series

	series = append(series, runSharPer(types.Byzantine, clusters, f, gen, o, nil))
	series = append(series, runAHL(types.Byzantine, clusters, f, gen, o))
	series = append(series, runReplicaBaseline("APR-B", gen, o, func() (*replica.Deployment, error) {
		return apr.NewByzantine(16, f, transport.Config{}, o.Seed)
	}))
	series = append(series, runReplicaBaseline("FaB", gen, o, func() (*replica.Deployment, error) {
		return fab.New(16, f, transport.Config{}, o.Seed)
	}))

	Fprint(w, fmt.Sprintf("Figure 7 — Byzantine model, %d%% cross-shard", crossPct), series)
	return series
}

// Figure8 reproduces Fig. 8: SharPer's scalability with 2, 3, 4, and 5
// clusters under the typical 90% intra / 10% cross-shard workload.
func Figure8(w io.Writer, model types.FailureModel, o FigureOptions) []Series {
	o.fill()
	var series []Series
	counts := []int{2, 3, 4, 5}
	if o.Quick {
		counts = []int{2, 4}
	}
	for _, clusters := range counts {
		gen := workloadFor(clusters, 10, o)
		s := runSharPer(model, clusters, 1, gen, o, nil)
		s.Name = fmt.Sprintf("%d-clusters", clusters)
		series = append(series, s)
	}
	Fprint(w, fmt.Sprintf("Figure 8 — SharPer scalability, %s model, 10%% cross-shard", model), series)
	return series
}

// Section34 reproduces the §3.4 clustered-network example: 23 Byzantine
// nodes. Without group knowledge (global f=3) only 2 clusters fit; knowing
// group A (n=7, f=2) and group B (n=16, f=1) yields 5 clusters and more
// parallelism.
func Section34(w io.Writer, o FigureOptions) []Series {
	o.fill()
	var series []Series

	// Plan 1: global f=3 → clusters of 3f+1=10; 23 nodes → 2 clusters
	// (the second absorbs the 3 leftover nodes, §2.2).
	plan1 := &consensus.Topology{Model: types.Byzantine, Clusters: map[types.ClusterID]consensus.Cluster{}}
	next := types.NodeID(0)
	addCluster := func(t *consensus.Topology, id types.ClusterID, f, size int) {
		c := consensus.Cluster{ID: id, F: f}
		for i := 0; i < size; i++ {
			c.Members = append(c.Members, next)
			next++
		}
		t.Clusters[id] = c
	}
	addCluster(plan1, 0, 3, 10)
	addCluster(plan1, 1, 3, 13)
	gen1 := workloadFor(2, 10, o)
	s1 := runSharPer(types.Byzantine, 0, 0, gen1, o, plan1)
	s1.Name = "2-clusters(global-f)"
	series = append(series, s1)

	// Plan 2: group-aware clustering → 1 cluster of 7 (f=2) + 4 of 4 (f=1).
	plan2 := &consensus.Topology{Model: types.Byzantine, Clusters: map[types.ClusterID]consensus.Cluster{}}
	next = 0
	addCluster(plan2, 0, 2, 7)
	for i := 1; i <= 4; i++ {
		addCluster(plan2, types.ClusterID(i), 1, 4)
	}
	gen2 := workloadFor(5, 10, o)
	s2 := runSharPer(types.Byzantine, 0, 0, gen2, o, plan2)
	s2.Name = "5-clusters(group-aware)"
	series = append(series, s2)

	Fprint(w, "Section 3.4 — clustered-network optimization, 23 Byzantine nodes, 10% cross-shard", series)
	return series
}

// AblationSkew measures contention sensitivity, an experiment beyond the
// paper: the same 20% cross-shard workload with uniform account selection
// versus a heavily Zipf-skewed one. Account skew concentrates conflicts on
// hot records, but because SharPer serializes at cluster granularity (not
// per record), throughput is expected to be largely insensitive to skew —
// a property worth documenting either way.
func AblationSkew(w io.Writer, o FigureOptions) []Series {
	o.fill()
	const clusters, f = 4, 1
	var series []Series
	for _, zipf := range []float64{0, 1.5} {
		gen := workload.New(workload.Config{
			Shards:           state.ShardMap{NumShards: clusters},
			AccountsPerShard: o.AccountsPerShard,
			CrossShardPct:    20,
			ShardsPerCross:   2,
			Amount:           1,
			Zipf:             zipf,
			Seed:             o.Seed,
		})
		s := runSharPer(types.CrashOnly, clusters, f, gen, o, nil)
		if zipf == 0 {
			s.Name = "uniform"
		} else {
			s.Name = fmt.Sprintf("zipf-%.1f", zipf)
		}
		series = append(series, s)
	}
	Fprint(w, "Ablation — account skew, crash model, 20% cross-shard", series)
	return series
}

// AblationSuperPrimary compares SharPer with and without the super-primary
// routing rule under a high cross-shard percentage, where conflicting
// cross-shard transactions are common (§3.2).
func AblationSuperPrimary(w io.Writer, o FigureOptions) []Series {
	o.fill()
	const clusters, f = 4, 1
	gen := workloadFor(clusters, 80, o)

	on := runSharPer(types.CrashOnly, clusters, f, gen, o, nil)
	on.Name = "super-primary"

	d, err := core.NewDeployment(core.Config{
		Model: types.CrashOnly, Clusters: clusters, F: f,
		Seed: o.Seed, DisableSuperPrimary: true,
	})
	off := Series{Name: "independent-initiators"}
	if err == nil {
		d.SeedAccounts(o.AccountsPerShard, seedBalance)
		d.Start()
		sys := SharPerSystem{D: d}
		off.Points = Sweep(sys, gen, o.clients(), o.bench())
		sys.Stop()
	}
	series := []Series{on, off}
	Fprint(w, "Ablation — super-primary routing, crash model, 80% cross-shard", series)
	return series
}

// BatchingResult is one point of the batching ablation, shaped for the
// machine-readable BENCH_batching.json that tracks the perf trajectory
// across PRs.
type BatchingResult struct {
	BatchSize    int     `json:"batch_size"`
	Clients      int     `json:"clients"`
	ThroughputTx float64 `json:"tx_per_sec"`
	AvgLatencyMs float64 `json:"ms_per_tx"`
	MsgsPerTx    float64 `json:"msgs_per_tx"`
}

// AblationBatching measures SharPer's multi-transaction blocks (a deliberate
// deviation from the paper's single-tx blocks; see DESIGN.md) on the
// Fig. 6(a) intra-shard workload at batch sizes 1, 8, and 16, with a client
// pool large enough to saturate the 4-cluster fabric. It reports throughput,
// latency, and delivered messages per committed transaction — the quantity
// batching amortizes.
func AblationBatching(w io.Writer, o FigureOptions) []BatchingResult {
	o.fill()
	const clusters, f = 4, 1
	clients := 128
	if o.Quick {
		clients = 48
	}
	gen := workloadFor(clusters, 0, o)
	var results []BatchingResult
	var series []Series
	for _, bs := range []int{1, 8, 16} {
		d, err := core.NewDeployment(core.Config{
			Model: types.CrashOnly, Clusters: clusters, F: f, Seed: o.Seed, BatchSize: bs,
		})
		if err != nil {
			// Surface the failure instead of silently truncating the sweep:
			// a short BENCH_batching.json must be distinguishable from a
			// completed run.
			fmt.Fprintf(w, "# batch-%d: deployment failed: %v\n", bs, err)
			continue
		}
		d.SeedAccounts(o.AccountsPerShard, seedBalance)
		d.Start()
		sys := SharPerSystem{D: d}
		startMsgs := d.Net.Stats().Delivered.Load()
		startCommitted := d.TotalCommitted()
		pt := Run(sys, gen, clients, o.bench())
		msgs := d.Net.Stats().Delivered.Load() - startMsgs
		committed := d.TotalCommitted() - startCommitted
		sys.Stop()
		r := BatchingResult{
			BatchSize:    bs,
			Clients:      clients,
			ThroughputTx: pt.ThroughputTx,
			AvgLatencyMs: pt.AvgLatencyMs,
		}
		if committed > 0 {
			r.MsgsPerTx = float64(msgs) / float64(committed)
		}
		results = append(results, r)
		series = append(series, Series{Name: fmt.Sprintf("batch-%d", bs), Points: []Point{pt}})
	}
	Fprint(w, "Ablation — batched blocks, crash model, 0% cross-shard", series)
	return results
}

// PersistenceResult is one point of the durability ablation, shaped for the
// machine-readable BENCH_persistence.json that puts the WAL's overhead on
// the perf trajectory.
type PersistenceResult struct {
	// SyncPolicy is "memory" (no storage at all) or a storage.SyncPolicy
	// name: "none", "group", "always".
	SyncPolicy   string  `json:"sync_policy"`
	BatchSize    int     `json:"batch_size"`
	Clients      int     `json:"clients"`
	ThroughputTx float64 `json:"tx_per_sec"`
	AvgLatencyMs float64 `json:"ms_per_tx"`
	// OverheadPct is the throughput cost versus the in-memory baseline at
	// the same batch size (0 for the baseline itself).
	OverheadPct float64 `json:"overhead_pct_vs_memory"`
}

// AblationPersistence measures the durable-storage subsystem's cost on the
// Fig. 6(a) intra-shard workload: the in-memory baseline against the three
// WAL fsync policies (none / group / always), at batch sizes 1 and 16.
// Every durable run writes a real write-ahead log plus checkpoints to a
// temporary directory; "always" additionally pays one fsync per record,
// which is the full persist-before-ack guarantee against power loss.
func AblationPersistence(w io.Writer, o FigureOptions) []PersistenceResult {
	o.fill()
	const clusters, f = 4, 1
	clients := 128
	if o.Quick {
		clients = 48
	}
	gen := workloadFor(clusters, 0, o)
	configs := []struct {
		name string
		sync storage.SyncPolicy
		mem  bool
	}{
		{name: "memory", mem: true},
		{name: "none", sync: storage.SyncNone},
		{name: "group", sync: storage.SyncGroup},
		{name: "always", sync: storage.SyncAlways},
	}
	var results []PersistenceResult
	var series []Series
	baseline := make(map[int]float64) // batch size → memory tx/s
	for _, bs := range []int{1, 16} {
		for _, c := range configs {
			cfg := core.Config{
				Model: types.CrashOnly, Clusters: clusters, F: f,
				Seed: o.Seed, BatchSize: bs,
				// The in-memory row must stay in-memory even under the
				// SHARPER_PERSIST suite override.
				NoPersist: c.mem,
			}
			var dir string
			if !c.mem {
				var err error
				dir, err = os.MkdirTemp("", "sharper-bench-persist-")
				if err != nil {
					fmt.Fprintf(w, "# %s/batch-%d: tempdir failed: %v\n", c.name, bs, err)
					continue
				}
				cfg.DataDir = dir
				cfg.Sync = c.sync
			}
			d, err := core.NewDeployment(cfg)
			if err != nil {
				fmt.Fprintf(w, "# %s/batch-%d: deployment failed: %v\n", c.name, bs, err)
				if dir != "" {
					os.RemoveAll(dir)
				}
				continue
			}
			d.SeedAccounts(o.AccountsPerShard, seedBalance)
			d.Start()
			sys := SharPerSystem{D: d}
			pt := Run(sys, gen, clients, o.bench())
			sys.Stop()
			if dir != "" {
				os.RemoveAll(dir)
			}
			r := PersistenceResult{
				SyncPolicy:   c.name,
				BatchSize:    bs,
				Clients:      clients,
				ThroughputTx: pt.ThroughputTx,
				AvgLatencyMs: pt.AvgLatencyMs,
			}
			if c.mem {
				baseline[bs] = pt.ThroughputTx
			} else if base := baseline[bs]; base > 0 {
				r.OverheadPct = 100 * (base - pt.ThroughputTx) / base
			}
			results = append(results, r)
			series = append(series, Series{
				Name:   fmt.Sprintf("%s/batch-%d", c.name, bs),
				Points: []Point{pt},
			})
		}
	}
	Fprint(w, "Ablation — durable storage (WAL fsync policies), crash model, 0% cross-shard", series)
	return results
}

// HotpathResult is one point of the hot-path ablation, shaped for the
// machine-readable BENCH_hotpath.json that tracks the send/receive/verify
// overhaul (digest memoization, pooled zero-alloc encoding, coalesced TCP
// writes, parallel verification) against the pre-overhaul seed.
type HotpathResult struct {
	// Fabric is "sim" (the modelled in-process network) or "tcp" (real
	// loopback sockets, one fabric per replica).
	Fabric       string  `json:"fabric"`
	BatchSize    int     `json:"batch_size"`
	Clients      int     `json:"clients"`
	ThroughputTx float64 `json:"tx_per_sec"`
	AvgLatencyMs float64 `json:"ms_per_tx"`
	// AllocsPerTx is the process-wide heap allocation count per committed
	// transaction over the measurement window (clients included) — the
	// quantity the pooled encoding work drives down.
	AllocsPerTx float64 `json:"allocs_per_tx"`
	// SeedThroughputTx is the same configuration measured at the pre-overhaul
	// commit (see hotpathSeed); Speedup = ThroughputTx / SeedThroughputTx.
	SeedThroughputTx float64 `json:"seed_tx_per_sec,omitempty"`
	Speedup          float64 `json:"speedup_vs_seed,omitempty"`
}

// hotpathSeed holds the pre-overhaul baselines for AblationHotpath's exact
// configurations (4 crash clusters × 3, 64 clients, 0% cross-shard,
// 1024 accounts/shard, seed 42, full windows), measured on the development
// machine at the PR base commit (328496d, single CPU). Refresh alongside
// BENCH_hotpath.json when re-baselining on different hardware.
var hotpathSeed = map[string]float64{
	"sim/1": 15756, "sim/8": 34685, "sim/16": 33968,
	"tcp/1": 10665, "tcp/8": 22181, "tcp/16": 26490,
}

// AblationHotpath measures the hot-path overhaul on the Fig. 6(a)
// intra-shard workload at batch sizes 1, 8, and 16, over both fabrics. The
// TCP rows are the headline: real sockets pay for every allocation, HMAC
// state, and write syscall the overhaul removes, so they isolate the wire
// hot path the way the simulated fabric (which models per-message cost
// instead of paying it) cannot.
func AblationHotpath(w io.Writer, o FigureOptions) []HotpathResult {
	o.fill()
	const clusters, f = 4, 1
	clients := 64
	if o.Quick {
		clients = 24
	}
	gen := workloadFor(clusters, 0, o)
	var results []HotpathResult
	var series []Series
	for _, fabric := range []struct {
		name string
		kind core.TransportKind
	}{{"sim", core.TransportSim}, {"tcp", core.TransportTCP}} {
		for _, bs := range []int{1, 8, 16} {
			d, err := core.NewDeployment(core.Config{
				Model: types.CrashOnly, Clusters: clusters, F: f, Seed: o.Seed,
				BatchSize: bs, Transport: fabric.kind,
				// The hot path under measurement is the wire, not the disk.
				NoPersist: true,
			})
			if err != nil {
				fmt.Fprintf(w, "# %s/batch-%d: deployment failed: %v\n", fabric.name, bs, err)
				continue
			}
			d.SeedAccounts(o.AccountsPerShard, seedBalance)
			d.Start()
			sys := SharPerSystem{D: d}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			startCommitted := d.TotalCommitted()
			pt := Run(sys, gen, clients, o.bench())
			runtime.ReadMemStats(&m1)
			committed := d.TotalCommitted() - startCommitted
			sys.Stop()
			r := HotpathResult{
				Fabric:       fabric.name,
				BatchSize:    bs,
				Clients:      clients,
				ThroughputTx: pt.ThroughputTx,
				AvgLatencyMs: pt.AvgLatencyMs,
			}
			if committed > 0 {
				r.AllocsPerTx = float64(m1.Mallocs-m0.Mallocs) / float64(committed)
			}
			// Quick runs use different client counts/windows than the
			// recorded baselines; comparing them would be noise.
			if base := hotpathSeed[fmt.Sprintf("%s/%d", fabric.name, bs)]; base > 0 && !o.Quick {
				r.SeedThroughputTx = base
				r.Speedup = r.ThroughputTx / base
			}
			results = append(results, r)
			series = append(series, Series{
				Name:   fmt.Sprintf("%s/batch-%d", fabric.name, bs),
				Points: []Point{pt},
			})
		}
	}
	Fprint(w, "Ablation — hot-path overhaul (sim + TCP fabrics), crash model, 0% cross-shard", series)
	return results
}

// WanResult is one point of the WAN ablation, shaped for the
// machine-readable BENCH_wan.json that tracks the link-shaping and
// batched-verification work: shaped-vs-loopback isolates the emulated WAN's
// cost, batched-vs-per-signature isolates the verify pool's window.
type WanResult struct {
	// Crypto is "mac" (PBFT's normal-case HMAC vectors) or "ed25519".
	Crypto string `json:"crypto"`
	// Network is "loopback" (unshaped sockets) or "multiregion" (the paper's
	// cross-datacenter link matrix emulated on those sockets).
	Network string `json:"network"`
	// VerifyWindow is the verify pool's batch window (1 = strictly per
	// signature, the baseline every speedup row divides by).
	VerifyWindow int     `json:"verify_window"`
	BatchSize    int     `json:"batch_size"`
	Clients      int     `json:"clients"`
	CrossPct     int     `json:"cross_pct"`
	ThroughputTx float64 `json:"tx_per_sec"`
	AvgLatencyMs float64 `json:"ms_per_tx"`
	P99LatencyMs float64 `json:"p99_ms"`
	// SpeedupVsPerSig is ThroughputTx over the window-1 row with the same
	// crypto and network (set once both measured).
	SpeedupVsPerSig float64 `json:"speedup_vs_per_sig,omitempty"`
	// WanCostPct is the throughput lost to multiregion shaping relative to
	// the loopback row with the same crypto and window.
	WanCostPct float64 `json:"wan_cost_pct,omitempty"`
	// Raw holds every rep's throughput (tx/s) behind the reported median.
	Raw []float64 `json:"raw,omitempty"`
}

// AblationWAN measures the two halves of the WAN-real fabric work on a
// Byzantine TCP deployment (4 clusters × 4 over real sockets): per-link
// multiregion shaping against raw loopback, and windowed batch verification
// against strict per-signature verification, for both authenticator families.
// Single-transaction blocks keep the verify pool on the hot path (every
// commit is its own PBFT instance, so signature checks per transaction are
// maximal — the regime the batching work targets), and the workload is
// intra-shard only: cross-shard mixes are bound by cross-region round-trips
// and lock contention, not verification, so they would bury the crypto A/B
// in scheduler noise (measured: 10% cross at high client counts loses more
// to parks/defers than the verify pool can ever win back).
func AblationWAN(w io.Writer, o FigureOptions) []WanResult {
	o.fill()
	const clusters, f = 4, 1
	const bs = 1
	const crossPct = 0
	clients := 64
	if o.Quick {
		clients = 24
	}
	cases := []struct {
		crypto  string
		ed25519 bool
		network string
		window  int
	}{
		{"mac", false, "loopback", 1},
		{"mac", false, "loopback", crypto.DefaultVerifyWindow},
		{"mac", false, "multiregion", 1},
		{"mac", false, "multiregion", 4},
		{"mac", false, "multiregion", crypto.DefaultVerifyWindow},
		{"ed25519", true, "multiregion", 1},
		{"ed25519", true, "multiregion", crypto.DefaultVerifyWindow},
	}
	// Shaped links need a longer window than the defaults (the delay lines
	// ramp throughput over the first second), and deployments measured back
	// to back in one process interfere (GC debt, scheduler state): each
	// configuration runs over several fresh deployments and reports the
	// median-throughput run.
	opts := Options{Warmup: time.Second, Measure: 3 * time.Second}
	reps := 3
	if o.Quick {
		opts = o.bench()
		reps = 1
	}
	perSig := make(map[string]float64)   // crypto/network → window-1 tx/s
	unshaped := make(map[string]float64) // crypto/window → loopback tx/s
	var results []WanResult
	var series []Series
	for _, c := range cases {
		var runs []Point
		for rep := 0; rep < reps; rep++ {
			gen := workloadFor(clusters, crossPct, o)
			cfg := core.Config{
				Model: types.Byzantine, Clusters: clusters, F: f,
				Seed:      o.Seed + int64(rep),
				BatchSize: bs, Transport: core.TransportTCP,
				Ed25519: c.ed25519, VerifyWindow: c.window,
				// The path under measurement is the wire + the verify pool.
				NoPersist: true,
			}
			if c.network == "multiregion" {
				cfg.Shaping = transport.Multiregion()
			}
			d, err := core.NewDeployment(cfg)
			if err != nil {
				fmt.Fprintf(w, "# %s/%s/window-%d: deployment failed: %v\n", c.crypto, c.network, c.window, err)
				continue
			}
			d.SeedAccounts(o.AccountsPerShard, seedBalance)
			d.Start()
			sys := SharPerSystem{D: d}
			runs = append(runs, Run(sys, gen, clients, opts))
			sys.Stop()
			runtime.GC() // don't bill this deployment's garbage to the next
		}
		if len(runs) == 0 {
			continue
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].ThroughputTx < runs[j].ThroughputTx })
		raw := make([]float64, len(runs))
		for i, run := range runs {
			raw[i] = run.ThroughputTx
		}
		pt := runs[len(runs)/2]
		r := WanResult{
			Crypto:       c.crypto,
			Network:      c.network,
			VerifyWindow: c.window,
			BatchSize:    bs,
			Clients:      clients,
			CrossPct:     crossPct,
			ThroughputTx: pt.ThroughputTx,
			AvgLatencyMs: pt.AvgLatencyMs,
			P99LatencyMs: pt.P99LatencyMs,
			Raw:          raw,
		}
		if c.window == 1 {
			perSig[c.crypto+"/"+c.network] = r.ThroughputTx
		} else if base := perSig[c.crypto+"/"+c.network]; base > 0 {
			r.SpeedupVsPerSig = r.ThroughputTx / base
		}
		key := fmt.Sprintf("%s/%d", c.crypto, c.window)
		if c.network == "loopback" {
			unshaped[key] = r.ThroughputTx
		} else if base := unshaped[key]; base > 0 {
			r.WanCostPct = 100 * (base - r.ThroughputTx) / base
		}
		results = append(results, r)
		series = append(series, Series{
			Name:   fmt.Sprintf("%s/%s/window-%d", c.crypto, c.network, c.window),
			Points: []Point{pt},
		})
	}
	Fprint(w, "Ablation — WAN shaping + batched verification, Byzantine model over TCP, intra-shard workload", series)
	return results
}

// StageLatency is one lifecycle stage's share of commit latency: the delta
// from the previous stamped stage to this one, over every sampled commit.
type StageLatency struct {
	Stage string `json:"stage"`
	Count uint64 `json:"count"`
	P50Us uint64 `json:"p50_us"`
	P99Us uint64 `json:"p99_us"`
}

// SeriesLatency breaks one transaction class ("intra" or "cross") into its
// per-stage latency distribution plus the end-to-end total.
type SeriesLatency struct {
	Series     string         `json:"series"`
	Sampled    uint64         `json:"sampled"`
	TotalP50Us uint64         `json:"total_p50_us"`
	TotalP99Us uint64         `json:"total_p99_us"`
	Stages     []StageLatency `json:"stages"`
}

// LatencyResult is one cell of the latency matrix: a network × batch-size
// configuration with both series' stage breakdowns.
type LatencyResult struct {
	// Network is "loopback" (unshaped sim fabric) or "multiregion" (the
	// paper's cross-datacenter link matrix emulated on it).
	Network      string          `json:"network"`
	BatchSize    int             `json:"batch_size"`
	Clients      int             `json:"clients"`
	CrossPct     int             `json:"cross_pct"`
	ThroughputTx float64         `json:"tx_per_sec"`
	AvgLatencyMs float64         `json:"ms_per_tx"`
	Series       []SeriesLatency `json:"series"`
}

// LatencyReport is the machine-readable BENCH_latency.json: the stage
// breakdown matrix plus the metrics-overhead A/B the CI guard tracks.
type LatencyReport struct {
	Cases []LatencyResult `json:"cases"`
	// MetricsOnTx / MetricsOffTx are median batch-16 sim throughputs with the
	// observability registry at its production default vs NoMetrics.
	MetricsOnTx        float64 `json:"metrics_on_tx_per_sec"`
	MetricsOffTx       float64 `json:"metrics_off_tx_per_sec"`
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	OverheadBudgetPct  float64 `json:"overhead_budget_pct"`
	// MetricsOnRaw / MetricsOffRaw hold every rep behind the medians (tx/s).
	MetricsOnRaw  []float64 `json:"metrics_on_raw,omitempty"`
	MetricsOffRaw []float64 `json:"metrics_off_raw,omitempty"`
}

// AblationLatency produces the per-stage commit-latency breakdown the
// observability work exists to answer: where does a transaction's time go,
// intra vs cross, on a local fabric vs an emulated WAN, with and without
// batching? Every transaction is traced (TraceSample 1) so the histograms
// are the figure, not a sample of it; the separate overhead A/B below runs
// at the production sampling default, since that is the configuration whose
// cost the ≤3% budget bounds.
func AblationLatency(w io.Writer, o FigureOptions) LatencyReport {
	o.fill()
	const clusters, f = 3, 1
	const crossPct = 20
	clients := 24
	opts := Options{Warmup: 500 * time.Millisecond, Measure: 2 * time.Second}
	if o.Quick {
		clients = 8
		opts = o.bench()
	}
	report := LatencyReport{OverheadBudgetPct: 3}
	cases := []struct {
		network string
		batch   int
	}{
		{"loopback", 1},
		{"loopback", 16},
		{"multiregion", 1},
		{"multiregion", 16},
	}
	fmt.Fprintf(w, "\n## Ablation — commit-latency stage breakdown (crash model, sim fabric, %d%% cross-shard, %d clients)\n", crossPct, clients)
	for _, c := range cases {
		gen := workloadFor(clusters, crossPct, o)
		cfg := core.Config{
			Model: types.CrashOnly, Clusters: clusters, F: f, Seed: o.Seed,
			BatchSize: c.batch, TraceSample: 1,
		}
		if c.network == "multiregion" {
			cfg.Shaping = transport.Multiregion()
		}
		d, err := core.NewDeployment(cfg)
		if err != nil {
			fmt.Fprintf(w, "# latency %s/batch-%d: deployment failed: %v\n", c.network, c.batch, err)
			continue
		}
		d.SeedAccounts(o.AccountsPerShard, seedBalance)
		d.Start()
		sys := SharPerSystem{D: d}
		pt := Run(sys, gen, clients, opts)
		snap := d.MetricsSnapshot()
		sys.Stop()
		runtime.GC() // don't bill this deployment's garbage to the next

		r := LatencyResult{
			Network: c.network, BatchSize: c.batch, Clients: clients,
			CrossPct: crossPct, ThroughputTx: pt.ThroughputTx, AvgLatencyMs: pt.AvgLatencyMs,
		}
		byName := make(map[string]*obs.Metric, len(snap))
		for i := range snap {
			byName[snap[i].Name] = &snap[i]
		}
		for si, series := range []string{"intra", "cross"} {
			sl := SeriesLatency{Series: series}
			if tot := byName["stage_"+series+"_total_us"]; tot != nil {
				sl.Sampled = tot.Count
				sl.TotalP50Us = tot.Quantile(0.50)
				sl.TotalP99Us = tot.Quantile(0.99)
			}
			for st := obs.StageSeal; st < obs.NumStages; st++ {
				if si == 0 && st == obs.StageLockGrant {
					continue
				}
				h := byName["stage_"+series+"_"+st.String()+"_us"]
				if h == nil || h.Count == 0 {
					continue
				}
				sl.Stages = append(sl.Stages, StageLatency{
					Stage: st.String(), Count: h.Count,
					P50Us: h.Quantile(0.50), P99Us: h.Quantile(0.99),
				})
			}
			fmt.Fprintf(w, "%-11s batch=%-2d %-5s  sampled=%-5d total p50=%6dµs p99=%6dµs |",
				c.network, c.batch, series, sl.Sampled, sl.TotalP50Us, sl.TotalP99Us)
			for _, s := range sl.Stages {
				fmt.Fprintf(w, " %s=%dµs", s.Stage, s.P50Us)
			}
			fmt.Fprintln(w)
			r.Series = append(r.Series, sl)
		}
		report.Cases = append(report.Cases, r)
	}

	// Overhead A/B: batch-16 loopback throughput with the registry at its
	// production default against NoMetrics, interleaved so machine drift hits
	// both arms equally, medians compared. NoPersist keeps fsync jitter from
	// burying the few-percent signal under measurement noise.
	reps := 3
	if o.Quick {
		reps = 1
	}
	measure := func(noMetrics bool, rep int) float64 {
		gen := workloadFor(clusters, crossPct, o)
		d, err := core.NewDeployment(core.Config{
			Model: types.CrashOnly, Clusters: clusters, F: f,
			Seed: o.Seed + int64(rep), BatchSize: 16,
			NoPersist: true, NoMetrics: noMetrics,
		})
		if err != nil {
			return 0
		}
		d.SeedAccounts(o.AccountsPerShard, seedBalance)
		d.Start()
		sys := SharPerSystem{D: d}
		pt := Run(sys, gen, clients, opts)
		sys.Stop()
		runtime.GC()
		return pt.ThroughputTx
	}
	var on, off []float64
	for rep := 0; rep < reps; rep++ {
		off = append(off, measure(true, rep))
		on = append(on, measure(false, rep))
	}
	sort.Float64s(on)
	sort.Float64s(off)
	report.MetricsOnRaw = append([]float64(nil), on...)
	report.MetricsOffRaw = append([]float64(nil), off...)
	report.MetricsOnTx = on[len(on)/2]
	report.MetricsOffTx = off[len(off)/2]
	if report.MetricsOffTx > 0 {
		report.MetricsOverheadPct = 100 * (report.MetricsOffTx - report.MetricsOnTx) / report.MetricsOffTx
	}
	fmt.Fprintf(w, "metrics overhead: on=%.0f tx/s off=%.0f tx/s → %.2f%% (budget %.0f%%)\n",
		report.MetricsOnTx, report.MetricsOffTx, report.MetricsOverheadPct, report.OverheadBudgetPct)
	return report
}

func runSharPer(model types.FailureModel, clusters, f int, gen *workload.Generator,
	o FigureOptions, topo *consensus.Topology) Series {
	cfg := core.Config{Model: model, Clusters: clusters, F: f, Seed: o.Seed, Topology: topo}
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return Series{Name: "SharPer"}
	}
	d.SeedAccounts(o.AccountsPerShard, seedBalance)
	d.Start()
	sys := SharPerSystem{D: d}
	pts := Sweep(sys, gen, o.clients(), o.bench())
	sys.Stop()
	return Series{Name: "SharPer", Points: pts}
}

func runAHL(model types.FailureModel, clusters, f int, gen *workload.Generator, o FigureOptions) Series {
	name := "AHL-C"
	if model == types.Byzantine {
		name = "AHL-B"
	}
	d, err := ahl.NewDeployment(ahl.Config{Model: model, Clusters: clusters, F: f, Seed: o.Seed})
	if err != nil {
		return Series{Name: name}
	}
	d.SeedAccounts(o.AccountsPerShard, seedBalance)
	d.Start()
	sys := AHLSystem{D: d}
	pts := Sweep(sys, gen, o.clients(), o.bench())
	sys.Stop()
	return Series{Name: name, Points: pts}
}

func runReplicaBaseline(name string, gen *workload.Generator, o FigureOptions,
	build func() (*replica.Deployment, error)) Series {
	d, err := build()
	if err != nil {
		return Series{Name: name}
	}
	d.SeedAccounts(state.ShardMap{NumShards: gen.NumShards()}, o.AccountsPerShard, seedBalance)
	d.Start()
	sys := ReplicaSystem{D: d}
	pts := Sweep(sys, gen, o.clients(), o.bench())
	sys.Stop()
	return Series{Name: name, Points: pts}
}
