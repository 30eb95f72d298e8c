package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharper/internal/types"
	"sharper/internal/workload"
)

// TestCrossParallelStress hammers the conflict-aware scheduler with a mixed
// disjoint/overlapping cross-heavy workload — the regime where pipelined
// leads, slot-precise deferral, and the lock-ordering launch gate all fire
// constantly — then audits that no two replicas of a cluster ever committed
// different blocks at one height and that every cross-shard block reached
// every involved cluster. On divergence it dumps every node's intra AND
// cross trace rings (Config.Trace is on for the run; both rings carry
// wall-clock prefixes so they merge into one timeline), which is exactly the
// evidence the ROADMAP's intra/cross fork hunt needs.
func TestCrossParallelStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   TransportKind
		sets workload.CrossSetMode
		pct  int
	}{
		{"sim-mixed", TransportSim, workload.SetsMixed, 90},
		{"tcp-mixed", TransportTCP, workload.SetsMixed, 90},
		{"tcp-random", TransportTCP, workload.SetsRandom, 50},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runCrossParallelStress(t, tc.tr, tc.sets, tc.pct)
		})
	}
}

func runCrossParallelStress(t *testing.T, tr TransportKind, sets workload.CrossSetMode, crossPct int) {
	cfg := Config{
		Model:     types.CrashOnly,
		Clusters:  4,
		F:         1,
		Seed:      11,
		Transport: tr,
		BatchSize: 8,
		Trace:     true,
	}
	if tr == TransportSim {
		cfg.Network.DropProb = 0.005
		cfg.Network.Seed = 11
	}
	d, err := testDeployment(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(256, 1_000_000)
	d.Start()
	defer d.Stop()

	gen := workload.New(workload.Config{
		Shards:           d.Shards,
		AccountsPerShard: 256,
		CrossShardPct:    crossPct,
		ShardsPerCross:   2,
		CrossSets:        sets,
		OverlapPct:       50,
		Seed:             11,
	})
	const clients = 24
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := gen.Split(k)
			c := d.NewClient()
			c.Timeout = 2 * time.Second
			c.MaxAttempts = 4
			for !stop.Load() {
				c.Transfer(g.Next())
			}
		}(i)
	}
	time.Sleep(1500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	time.Sleep(500 * time.Millisecond)

	// Audit 1: within each cluster, same height ⇒ same block.
	var diverged bool
	for _, cid := range d.Topo.ClusterIDs() {
		members := d.Topo.Members(cid)
		ref := d.Node(members[0]).View()
		for _, m := range members[1:] {
			v := d.Node(m).View()
			n := ref.Len()
			if v.Len() < n {
				n = v.Len()
			}
			for i := 0; i < n; i++ {
				if ref.Block(i).Hash() != v.Block(i).Hash() {
					diverged = true
					t.Errorf("cluster %s DIVERGED at height %d: %s=%v (inv=%v) vs %s=%v (inv=%v)",
						cid, i,
						members[0], ref.Block(i).Txs[0].ID, ref.Block(i).Involved(),
						m, v.Block(i).Txs[0].ID, v.Block(i).Involved())
				}
			}
		}
	}
	// Audit 2: the union DAG (cross-shard presence + pairwise order).
	if err := d.DAG().Verify(); err != nil {
		diverged = true
		t.Errorf("DAG verify: %v", err)
	}
	if !diverged {
		return
	}
	// Divergence: dump both protocol rings of every node, merged evidence
	// for the fork hunt.
	for _, n := range d.Nodes() {
		t.Logf("===== node %s (cluster %s) =====", n.ID(), n.Cluster())
		for _, l := range n.DebugTrace() {
			t.Log("  I " + l)
		}
		for _, l := range n.cross.ring.Lines() {
			t.Log("  X " + l)
		}
		t.Logf("  stats=%+v", *n.Counters())
	}
	t.Fatal("cross-parallel stress diverged; trace rings above")
}

// TestCrossParallelSchedulerCounters asserts the observability surface moves
// under a cross-heavy run: leads launch, proposals park, and slot-precise
// deferral avoids at least some node-wide stalls.
func TestCrossParallelSchedulerCounters(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 4)
	gen := workload.New(workload.Config{
		Shards:           d.Shards,
		AccountsPerShard: 64,
		CrossShardPct:    80,
		ShardsPerCross:   2,
		Seed:             7,
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := gen.Split(k)
			c := d.NewClient()
			c.Timeout = 5 * time.Second
			for j := 0; j < 30; j++ {
				c.Transfer(g.Next())
			}
		}(i)
	}
	wg.Wait()
	d.Stop() // quiesce node goroutines before reading their counters
	var agg types.SchedStats
	for _, n := range d.Nodes() {
		s := n.Counters()
		if s.Node != n.ID() {
			t.Fatalf("counters carry node %v, want %v", s.Node, n.ID())
		}
		agg.Add(s)
	}
	if agg.Proposes == 0 || agg.Grants == 0 || agg.Decides == 0 {
		t.Fatalf("cross-shard counters did not move: %+v", agg)
	}
	if agg.LeadHighWater == 0 {
		t.Fatalf("no lead ever registered in the conflict table: %+v", agg)
	}
}
