// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4) as testing.B targets. Each benchmark drives one (system, workload)
// pair from one panel with a fixed closed-loop client pool and reports
// throughput (tx/s) and mean latency (ms/tx). For the full
// throughput/latency curves the paper plots, use cmd/sharper-bench, which
// sweeps the client count to saturation.
//
//	go test -bench=Fig6a -benchmem          # one panel
//	go test -bench=. -benchmem              # everything
package sharper

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharper/internal/ahl"
	"sharper/internal/apr"
	"sharper/internal/bench"
	"sharper/internal/core"
	"sharper/internal/fab"
	"sharper/internal/fastpaxos"
	"sharper/internal/replica"
	"sharper/internal/state"
	"sharper/internal/transport"
	"sharper/internal/types"
	"sharper/internal/workload"
)

const (
	benchClients          = 16
	benchAccountsPerShard = 1024
	benchSeedBalance      = int64(1) << 40
)

// drive issues b.N transactions through a closed-loop client pool and
// reports throughput and latency.
func drive(b *testing.B, sys bench.System, gen *workload.Generator) {
	b.Helper()
	driveN(b, sys, gen, benchClients)
}

// driveN is drive with an explicit client-pool size; saturation experiments
// (batching) need more closed-loop clients than the default panel runs.
func driveN(b *testing.B, sys bench.System, gen *workload.Generator, clients int) {
	b.Helper()
	defer sys.Stop()

	var issued atomic.Int64
	var totalLat atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := gen.Split(k)
			issue := sys.NewIssuer()
			for issued.Add(1) <= int64(b.N) {
				lat, err := issue(g.Next())
				if err != nil {
					continue
				}
				totalLat.Add(int64(lat))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tx/s")
	b.ReportMetric(float64(totalLat.Load())/float64(b.N)/1e6, "ms/tx")
}

func benchGen(shards, crossPct int) *workload.Generator {
	return workload.New(workload.Config{
		Shards:           state.ShardMap{NumShards: shards},
		AccountsPerShard: benchAccountsPerShard,
		CrossShardPct:    crossPct,
		ShardsPerCross:   2,
		Amount:           1,
		Seed:             42,
	})
}

func sharperSys(b *testing.B, model types.FailureModel, clusters, f int) bench.System {
	b.Helper()
	d, err := core.NewDeployment(matrixConfig(b, core.Config{Model: model, Clusters: clusters, F: f, Seed: 42}))
	if err != nil {
		b.Fatal(err)
	}
	d.SeedAccounts(benchAccountsPerShard, benchSeedBalance)
	d.Start()
	return bench.SharPerSystem{D: d}
}

func sharperPlanSys(b *testing.B, groups []Group) bench.System {
	b.Helper()
	plan, err := PlanClusters(Byzantine, groups)
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(WithMatrix(b, Options{
		Model: Byzantine, Plan: plan,
		AccountsPerShard: benchAccountsPerShard, InitialBalance: benchSeedBalance, Seed: 42,
	}))
	if err != nil {
		b.Fatal(err)
	}
	return netSystem{n}
}

// netSystem adapts the public API Network to the bench harness.
type netSystem struct{ n *Network }

func (s netSystem) NewIssuer() bench.Issuer {
	c := s.n.NewClient()
	return func(ops []types.Op) (time.Duration, error) {
		res, err := c.Submit(ops)
		return res.Latency, err
	}
}

func (s netSystem) Stop() { s.n.Close() }

func ahlSys(b *testing.B, model types.FailureModel, clusters, f int) bench.System {
	b.Helper()
	d, err := ahl.NewDeployment(ahl.Config{Model: model, Clusters: clusters, F: f, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	d.SeedAccounts(benchAccountsPerShard, benchSeedBalance)
	d.Start()
	return bench.AHLSystem{D: d}
}

func replicaSys(b *testing.B, d *replica.Deployment, err error) bench.System {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	d.SeedAccounts(state.ShardMap{NumShards: 4}, benchAccountsPerShard, benchSeedBalance)
	d.Start()
	return bench.ReplicaSystem{D: d}
}

// --- Figure 6: crash model, 12 nodes, varying cross-shard percentage ---

func benchFig6(b *testing.B, crossPct int) {
	gen := benchGen(4, crossPct)
	b.Run("SharPer", func(b *testing.B) { drive(b, sharperSys(b, types.CrashOnly, 4, 1), gen) })
	b.Run("AHL-C", func(b *testing.B) { drive(b, ahlSys(b, types.CrashOnly, 4, 1), gen) })
	b.Run("APR-C", func(b *testing.B) {
		d, err := apr.NewCrash(12, 1, transport.Config{}, 42)
		drive(b, replicaSys(b, d, err), gen)
	})
	b.Run("FPaxos", func(b *testing.B) {
		d, err := fastpaxos.New(12, 1, transport.Config{}, 42)
		drive(b, replicaSys(b, d, err), gen)
	})
}

func BenchmarkFig6a_0pctCross(b *testing.B)   { benchFig6(b, 0) }
func BenchmarkFig6b_20pctCross(b *testing.B)  { benchFig6(b, 20) }
func BenchmarkFig6c_80pctCross(b *testing.B)  { benchFig6(b, 80) }
func BenchmarkFig6d_100pctCross(b *testing.B) { benchFig6(b, 100) }

// --- Batching ablation: multi-transaction blocks (deliberate deviation from
// the paper's single-tx blocks; see DESIGN.md). Run with -bench=Fig6a. ---

func sharperBatchSys(b *testing.B, model types.FailureModel, clusters, f, batchSize int) bench.System {
	b.Helper()
	d, err := core.NewDeployment(matrixConfig(b, core.Config{
		Model: model, Clusters: clusters, F: f, Seed: 42, BatchSize: batchSize,
	}))
	if err != nil {
		b.Fatal(err)
	}
	d.SeedAccounts(benchAccountsPerShard, benchSeedBalance)
	d.Start()
	return bench.SharPerSystem{D: d}
}

// batchingClients saturates the 4-cluster fabric so batches actually fill;
// the default 16-client pool never queues more than ~4 requests per cluster.
const batchingClients = 128

func BenchmarkFig6aBatching(b *testing.B) {
	for _, bs := range []int{1, 8, 16} {
		bs := bs
		b.Run(map[int]string{1: "batch1", 8: "batch8", 16: "batch16"}[bs], func(b *testing.B) {
			driveN(b, sharperBatchSys(b, types.CrashOnly, 4, 1, bs), benchGen(4, 0), batchingClients)
		})
	}
}

// --- Figure 7: Byzantine model, 16 nodes, varying cross-shard percentage ---

func benchFig7(b *testing.B, crossPct int) {
	gen := benchGen(4, crossPct)
	b.Run("SharPer", func(b *testing.B) { drive(b, sharperSys(b, types.Byzantine, 4, 1), gen) })
	b.Run("AHL-B", func(b *testing.B) { drive(b, ahlSys(b, types.Byzantine, 4, 1), gen) })
	b.Run("APR-B", func(b *testing.B) {
		d, err := apr.NewByzantine(16, 1, transport.Config{}, 42)
		drive(b, replicaSys(b, d, err), gen)
	})
	b.Run("FaB", func(b *testing.B) {
		d, err := fab.New(16, 1, transport.Config{}, 42)
		drive(b, replicaSys(b, d, err), gen)
	})
}

func BenchmarkFig7a_0pctCross(b *testing.B)   { benchFig7(b, 0) }
func BenchmarkFig7b_20pctCross(b *testing.B)  { benchFig7(b, 20) }
func BenchmarkFig7c_80pctCross(b *testing.B)  { benchFig7(b, 80) }
func BenchmarkFig7d_100pctCross(b *testing.B) { benchFig7(b, 100) }

// --- Figure 8: SharPer scalability, 90/10 workload, 2–5 clusters ---

func benchFig8(b *testing.B, model types.FailureModel) {
	for _, clusters := range []int{2, 3, 4, 5} {
		clusters := clusters
		b.Run(map[int]string{2: "2clusters", 3: "3clusters", 4: "4clusters", 5: "5clusters"}[clusters],
			func(b *testing.B) {
				drive(b, sharperSys(b, model, clusters, 1), benchGen(clusters, 10))
			})
	}
}

func BenchmarkFig8a_CrashScaling(b *testing.B)     { benchFig8(b, types.CrashOnly) }
func BenchmarkFig8b_ByzantineScaling(b *testing.B) { benchFig8(b, types.Byzantine) }

// --- §3.4: clustered-network optimization, 23 Byzantine nodes ---

func BenchmarkSec34_GlobalF(b *testing.B) {
	drive(b, sharperPlanSys(b, []Group{{Nodes: 23, F: 3}}), benchGen(2, 10))
}

func BenchmarkSec34_GroupAware(b *testing.B) {
	drive(b, sharperPlanSys(b, []Group{{Nodes: 7, F: 2}, {Nodes: 16, F: 1}}), benchGen(5, 10))
}

// --- Ablation: §3.2 super-primary routing under high contention ---

func BenchmarkAblationSuperPrimary_On(b *testing.B) {
	drive(b, sharperSys(b, types.CrashOnly, 4, 1), benchGen(4, 80))
}

func BenchmarkAblationSuperPrimary_Off(b *testing.B) {
	d, err := core.NewDeployment(matrixConfig(b, core.Config{
		Model: types.CrashOnly, Clusters: 4, F: 1, Seed: 42, DisableSuperPrimary: true,
	}))
	if err != nil {
		b.Fatal(err)
	}
	d.SeedAccounts(benchAccountsPerShard, benchSeedBalance)
	d.Start()
	drive(b, bench.SharPerSystem{D: d}, benchGen(4, 80))
}
