package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharper/internal/types"
	"sharper/internal/workload"
)

// TestStressMixedCrash drives a contended mixed workload and dumps node
// state if anything wedges, to keep liveness regressions debuggable.
func TestStressMixedCrash(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 4)
	const clients = 8
	const perClient = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := d.NewClient()
			c.Timeout = 5 * time.Second
			for j := 0; j < perClient; j++ {
				var ops []types.Op
				switch j % 4 {
				case 0:
					ops = intraOps(d, types.ClusterID(k%4))
				case 1:
					ops = crossOps(d, types.ClusterID(k%4), types.ClusterID((k+1)%4))
				case 2:
					ops = crossOps(d, types.ClusterID((k+2)%4), types.ClusterID((k+3)%4))
				default:
					ops = intraOps(d, types.ClusterID((k+1)%4))
				}
				if _, _, err := c.Transfer(ops); err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("client %d tx %d: %v", k, j, err))
					mu.Unlock()
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(failures) == 0 {
		waitQuiesce(t, d)
		if err := d.DAG().Verify(); err != nil {
			t.Fatalf("DAG verify: %v", err)
		}
		return
	}
	for _, f := range failures {
		t.Log(f)
	}
	d.Stop() // quiesce node goroutines before reading their state
	for _, n := range d.Nodes() {
		t.Logf("node %s cluster %s: locked=%v waiting=%d pending=%d pendingIntra=%d pendingCross=%d deferred=%d pendingApply=%d committed=%d viewLen=%d anomalies=%d primary=%v",
			n.ID(), n.Cluster(), n.cross.Locked(), n.cross.Waiting(), n.cross.Pending(),
			len(n.pendingIntra), len(n.pendingCross), len(n.deferred), len(n.pendingApply),
			n.Committed(), n.view.Len(), n.Anomalies(), n.intra.IsPrimary())
	}
	t.Fatal("stall reproduced")
}

// TestStressMixedByz mirrors TestStressMixedCrash under the Byzantine model,
// dumping cross-engine internals on a stall.
func TestStressMixedByz(t *testing.T) {
	d := newTestDeployment(t, types.Byzantine, 4)
	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := d.NewClient()
			c.Timeout = 3 * time.Second
			c.MaxAttempts = 4
			for j := 0; j < perClient; j++ {
				var ops []types.Op
				switch j % 4 {
				case 0:
					ops = intraOps(d, types.ClusterID(k%4))
				case 1:
					ops = crossOps(d, types.ClusterID(k%4), types.ClusterID((k+1)%4))
				case 2:
					ops = crossOps(d, types.ClusterID((k+2)%4), types.ClusterID((k+3)%4))
				default:
					ops = intraOps(d, types.ClusterID((k+1)%4))
				}
				if _, _, err := c.Transfer(ops); err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("client %d tx %d: %v", k, j, err))
					mu.Unlock()
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(failures) == 0 {
		waitQuiesce(t, d)
		if err := d.DAG().Verify(); err != nil {
			t.Fatalf("DAG verify: %v", err)
		}
		return
	}
	for _, f := range failures {
		t.Log(f)
	}
	d.Stop() // quiesce node goroutines before reading their state
	for _, n := range d.Nodes() {
		x := n.cross
		extra := ""
		for dg, inst := range x.insts {
			extra += fmt.Sprintf(" inst[%s]{view=%d voted=%v pinned=%v txs=%d}", dg, inst.view, inst.voted, inst.pinned != nil, len(inst.txs))
		}
		for dg, inst := range x.leads {
			extra += fmt.Sprintf(" lead[%s]{view=%d att=%d dormant=%v}", dg, inst.view, inst.lead.attempts, inst.lead.dormant)
		}
		st := n.chainStatus()
		holder, _ := x.table.Holder()
		t.Logf("node %s %s: locked=%v(%s) waiting=%d drained=%v pi=%d pc=%d def=%d pa=%d commit=%d len=%d%s",
			n.ID(), n.Cluster(), x.table.Held(), holder, len(x.waiting), st.Drained,
			len(n.pendingIntra), len(n.pendingCross), len(n.deferred), len(n.pendingApply),
			n.Committed(), n.view.Len(), extra)
	}
	t.Fatal("stall reproduced")
}

// TestStressWorkloadCrash drives the bench-style random-pair workload that
// exposed wedges the fixed-pair stress tests missed.
func TestStressWorkloadCrash(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 4)
	gen := workload.New(workload.Config{
		Shards:           d.Shards,
		AccountsPerShard: 64,
		CrossShardPct:    20,
		ShardsPerCross:   2,
		Seed:             99,
	})
	const clients = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := gen.Split(k)
			c := d.NewClient()
			c.Timeout = 3 * time.Second
			c.MaxAttempts = 3
			for j := 0; j < 40; j++ {
				if _, _, err := c.Transfer(g.Next()); err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("client %d tx %d: %v", k, j, err))
					mu.Unlock()
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(failures) == 0 {
		waitQuiesce(t, d)
		if err := d.DAG().Verify(); err != nil {
			t.Fatalf("DAG verify: %v", err)
		}
		return
	}
	for _, f := range failures {
		t.Log(f)
	}
	d.Stop() // quiesce node goroutines before reading their state
	for _, n := range d.Nodes() {
		x := n.cross
		extra := ""
		for dg, inst := range x.leads {
			extra += fmt.Sprintf(" lead[%s]{view=%d att=%d dormant=%v inv=%s}", dg, inst.view, inst.lead.attempts, inst.lead.dormant, inst.involved)
		}
		for dg := range x.waiting {
			extra += fmt.Sprintf(" wait[%s]", dg)
		}
		st := n.chainStatus()
		eng := ""
		if pe, ok := n.intra.(interface{ DebugString() string }); ok {
			eng = " || " + pe.DebugString()
		}
		holder, _ := x.table.Holder()
		t.Logf("node %s %s: locked=%v(%s) drained=%v viewHead=%s pi=%d pc=%d def=%d pa=%d commit=%d len=%d anom=%d%s%s",
			n.ID(), n.Cluster(), x.table.Held(), holder, st.Drained, n.view.Head(),
			len(n.pendingIntra), len(n.pendingCross), len(n.deferred), len(n.pendingApply),
			n.Committed(), n.view.Len(), n.Anomalies(), extra, eng)
	}
	t.Fatal("stall reproduced")
}

// TestCross100Diag drives a 100% cross-shard workload and dumps protocol
// event counters to diagnose conflict-resolution churn.
func TestCross100Diag(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 4)
	gen := workload.New(workload.Config{
		Shards:           d.Shards,
		AccountsPerShard: 64,
		CrossShardPct:    100,
		Seed:             5,
	})
	const clients = 8
	start := time.Now()
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := gen.Split(k)
			c := d.NewClient()
			c.Timeout = 5 * time.Second
			for j := 0; j < 20; j++ {
				if _, _, err := c.Transfer(g.Next()); err == nil {
					done.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	t.Logf("committed %d cross txs in %v (%.0f tx/s)", done.Load(), elapsed,
		float64(done.Load())/elapsed.Seconds())
	d.Stop() // quiesce node goroutines before reading their state
	for _, n := range d.Nodes() {
		s := n.Counters()
		t.Logf("node %s %s: proposes=%d withdraws=%d grants=%d decides=%d lockExpiries=%d pendingCross=%d",
			n.ID(), n.Cluster(), s.Proposes, s.Withdraws, s.Grants, s.Decides, s.LockExpiries, len(n.pendingCross))
	}
}

// TestCross100Sustained mirrors the bench harness conditions to find why
// the sweep collapses while short bursts are healthy.
func TestCross100Sustained(t *testing.T) {
	d, err := testDeployment(t, Config{Model: types.CrashOnly, Clusters: 4, F: 1, Seed: 42,
		RetryTimeout: 50 * time.Millisecond, LockTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(1024, 1<<40)
	d.Start()
	t.Cleanup(d.Stop)
	gen := workload.New(workload.Config{
		Shards:           d.Shards,
		AccountsPerShard: 1024,
		CrossShardPct:    100,
		ShardsPerCross:   2,
		Amount:           1,
		Seed:             42,
	})
	const clients = 8
	var stop atomic.Bool
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := gen.Split(k)
			c := d.NewClient()
			for !stop.Load() {
				if _, _, err := c.Transfer(g.Next()); err == nil {
					done.Add(1)
				}
			}
		}(i)
	}
	time.Sleep(600 * time.Millisecond)
	stop.Store(true)
	start := done.Load()
	wg.Wait()
	t.Logf("committed %d cross txs in 600ms (%.0f tx/s)", start, float64(start)/0.6)
	d.Stop() // quiesce node goroutines before reading their state
	for _, n := range d.Nodes() {
		s := n.Counters()
		t.Logf("node %s %s: prop=%d wdr=%d grant=%d dec=%d lockExp=%d pc=%d pi=%d parks=%d",
			n.ID(), n.Cluster(), s.Proposes, s.Withdraws, s.Grants, s.Decides, s.LockExpiries,
			len(n.pendingCross), len(n.pendingIntra), s.Parks)
	}
}
