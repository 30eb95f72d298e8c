package core

import (
	"testing"
	"time"

	"sharper/internal/transport"
	"sharper/internal/types"
)

// TestReplicaRestartRecoversFromStorage is the durable-storage fault
// scenario: a replica crashes mid-workload (the simulated fabric's crash
// mark), its process state dies, and a fresh incarnation recovers from its
// storage directory. The restarted replica must come back holding the chain
// it had persisted (no full resend — only the blocks committed while it was
// down arrive via chain sync), converge to the cluster head, and the
// deployment-wide ledger audit must pass.
func TestReplicaRestartRecoversFromStorage(t *testing.T) {
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 77,
		DataDir: t.TempDir(), CheckpointInterval: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(32, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	workload := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			var ops []types.Op
			if i%4 == 3 {
				ops = crossOps(d, 0, 1)
			} else {
				ops = intraOps(d, 0)
			}
			if _, _, err := c.Transfer(ops); err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
		}
	}

	victim := d.Topo.Members(0)[2] // a backup of cluster 0
	workload(12)
	// An overdrafting cross-shard transfer INTO shard 0: shard 1 vetoes it,
	// so the block is ordered with its validity bit clear and the credit
	// never applies. Recovery must replay the veto from the logged bitmap —
	// the balance comparison below fails if the restarted replica applies
	// what its peers rejected.
	if ok, _, err := c.Transfer([]types.Op{{
		From:   d.Shards.AccountInShard(1, 0),
		To:     d.Shards.AccountInShard(0, 0),
		Amount: 5_000_000, // seeded balance is 1M
	}}); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("overdraft reported committed")
	}
	lenAtCrash := d.Node(victim).View().Len()
	if lenAtCrash < 2 {
		t.Fatalf("victim committed nothing before the crash (chain %d)", lenAtCrash)
	}
	d.CrashNode(victim)
	workload(12) // the cluster keeps committing while the victim is down

	n2, err := d.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery must rebuild the pre-crash chain from disk: catching up via
	// a full resend from peers would defeat the checkpoint+log design.
	if got := n2.RecoveredBlocks(); got < lenAtCrash-1 {
		t.Fatalf("recovered only %d blocks from storage; had %d before the crash", got, lenAtCrash-1)
	}

	// The delta (committed while down) arrives via the chain-sync protocol.
	ref := d.Node(d.Topo.Members(0)[0])
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n2.View().Len() >= ref.View().Len() && n2.View().Head() == ref.View().Head() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica stuck at %d blocks, peer at %d",
				n2.View().Len(), ref.View().Len())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// State recovered + caught up, not just the chain.
	want := ref.Store().Snapshot()
	got := n2.Store().Snapshot()
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("account %s: restarted replica has %d, peer %d", k, got[k], v)
		}
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify after restart: %v", err)
	}
	if err := d.DAG().VerifyPairwiseOrder(); err != nil {
		t.Fatalf("pairwise order after restart: %v", err)
	}
	if n2.Anomalies() != 0 {
		t.Fatalf("restarted replica recorded %d anomalies", n2.Anomalies())
	}
}

// TestViewChangeEscalatesPastDeadPrimary pins the view-change liveness
// timer: view numbers rotate over all members including crashed ones, so
// suspicion can cascade onto a view whose candidate primary is the dead
// node itself. Without escalation every live node wedges in viewChanging
// forever (the historical TestCrashPrimaryViewChange flake). Repeated
// iterations vary the timing enough to hit the cascade.
func TestViewChangeEscalatesPastDeadPrimary(t *testing.T) {
	for iter := 0; iter < 4; iter++ {
		d, err := testDeployment(t, Config{
			Model: types.CrashOnly, Clusters: 2, F: 1,
			Seed: int64(7 + iter), BatchSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SeedAccounts(32, 1_000_000)
		d.Start()
		c := d.NewClient()
		c.Timeout = 2 * time.Second
		c.MaxAttempts = 8
		if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
			d.Stop()
			t.Fatalf("iter %d warmup: %v", iter, err)
		}
		d.CrashNode(d.Topo.Members(0)[0]) // the view-0 primary
		if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
			for _, idx := range []int{1, 2} {
				n := d.Node(d.Topo.Members(0)[idx])
				for _, line := range n.DebugTrace() {
					t.Logf("node %s: %s", n.ID(), line)
				}
			}
			d.Stop()
			t.Fatalf("iter %d: cluster wedged after primary crash: %v", iter, err)
		}
		d.Stop()
	}
}

// TestPrimaryRestartRecovers crashes and restarts a PRIMARY mid-workload:
// the cluster view-changes past it while it is down, and the restarted
// node must rejoin the new view (its recovered view position keeps it from
// acking stale proposals) without wedging the cluster or the audit.
func TestPrimaryRestartRecovers(t *testing.T) {
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 78,
		DataDir: t.TempDir(), IntraTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(32, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	c.Timeout = 2 * time.Second
	for i := 0; i < 6; i++ {
		if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
			t.Fatalf("warmup tx %d: %v", i, err)
		}
	}
	primary := d.Topo.Members(0)[0] // the view-0 primary
	d.CrashNode(primary)
	for i := 0; i < 6; i++ { // drives the view change and keeps committing
		if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
			t.Fatalf("tx %d across view change: %v", i, err)
		}
	}
	n2, err := d.RestartNode(primary)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	ref := d.Node(d.Topo.Members(0)[1])
	for {
		if n2.View().Len() >= ref.View().Len() && n2.View().Head() == ref.View().Head() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted ex-primary stuck at %d blocks, peer at %d",
				n2.View().Len(), ref.View().Len())
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify after primary restart: %v", err)
	}
}

// TestSurvivesMessageDrops runs a mixed workload over a lossy network: the
// asynchrony model says messages may be dropped, and retransmission plus
// chain sync must still drive every transaction to commit.
func TestSurvivesMessageDrops(t *testing.T) {
	net := transport.DefaultConfig()
	net.DropProb = 0.02
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 3, F: 1, Seed: 21, Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(32, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	c.Timeout = 3 * time.Second
	for i := 0; i < 30; i++ {
		var ops []types.Op
		if i%3 == 0 {
			ops = crossOps(d, types.ClusterID(i%3), types.ClusterID((i+1)%3))
		} else {
			ops = intraOps(d, types.ClusterID(i%3))
		}
		if _, _, err := c.Transfer(ops); err != nil {
			t.Fatalf("tx %d under drops: %v", i, err)
		}
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify after lossy run: %v", err)
	}
}

// TestLaggingReplicaCatchesUp isolates one backup behind a partition while
// the cluster commits, then heals it: the chain-sync protocol must bring
// the backup to the same head.
func TestLaggingReplicaCatchesUp(t *testing.T) {
	d, err := testDeployment(t, Config{Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(32, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	isolated := d.Topo.Members(0)[2]
	others := append([]types.NodeID{}, d.Topo.Members(0)[0], d.Topo.Members(0)[1])
	others = append(others, d.Topo.Members(1)...)
	d.Faults().Partition([]types.NodeID{isolated}, others)

	c := d.NewClient()
	for i := 0; i < 10; i++ {
		if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
			t.Fatalf("tx %d during partition: %v", i, err)
		}
	}
	behind := d.Node(isolated).View().Len()
	ahead := d.Node(d.Topo.Members(0)[0]).View().Len()
	if behind >= ahead {
		t.Fatalf("partition ineffective: isolated at %d, peer at %d", behind, ahead)
	}

	d.Faults().HealPartition()
	deadline := time.Now().Add(10 * time.Second)
	for {
		a := d.Node(d.Topo.Members(0)[0]).View()
		b := d.Node(isolated).View()
		if b.Len() == a.Len() && b.Head() == a.Head() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("isolated replica stuck at %d blocks, peer at %d", b.Len(), a.Len())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// State caught up too, not just the chain.
	want := d.Node(d.Topo.Members(0)[0]).Store().Snapshot()
	got := d.Node(isolated).Store().Snapshot()
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("account %s: isolated has %d, peer %d", k, got[k], v)
		}
	}
}

// TestCrossShardAtomicValidation checks that an overdrafting cross-shard
// transaction is rejected by every involved shard — the credit side must
// not apply when the debit side fails (§4 validation, voted through the
// flattened protocol's accept phase).
func TestCrossShardAtomicValidation(t *testing.T) {
	for _, model := range []types.FailureModel{types.CrashOnly, types.Byzantine} {
		t.Run(model.String(), func(t *testing.T) {
			d := newTestDeployment(t, model, 2)
			c := d.NewClient()
			ok, _, err := c.Transfer([]types.Op{{
				From:   d.Shards.AccountInShard(0, 0),
				To:     d.Shards.AccountInShard(1, 0),
				Amount: 5_000_000, // seeded balance is 1M
			}})
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatal("overdraft reported committed")
			}
			waitQuiesce(t, d)
			for _, n := range d.Nodes() {
				if n.Cluster() != 1 {
					continue
				}
				if got := n.Store().Balance(d.Shards.AccountInShard(1, 0)); got != 1_000_000 {
					t.Fatalf("node %s applied the credit of a rejected tx: %d", n.ID(), got)
				}
			}
		})
	}
}

// TestDisjointCrossShardParallelism measures that cross-shard transactions
// over disjoint cluster pairs make progress concurrently: with pairs {0,1}
// and {2,3} issued together, total time is far below the serial sum.
func TestDisjointCrossShardParallelism(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 4)
	const n = 20
	done := make(chan time.Duration, 2)
	for pair := 0; pair < 2; pair++ {
		go func(pair int) {
			c := d.NewClient()
			start := time.Now()
			for i := 0; i < n; i++ {
				a := types.ClusterID(2 * pair)
				b := types.ClusterID(2*pair + 1)
				if _, _, err := c.Transfer(crossOps(d, a, b)); err != nil {
					t.Error(err)
					break
				}
			}
			done <- time.Since(start)
		}(pair)
	}
	d1, d2 := <-done, <-done
	serialEstimate := d1 + d2
	// Run the same load again strictly serially for comparison.
	c := d.NewClient()
	start := time.Now()
	for i := 0; i < 2*n; i++ {
		a := types.ClusterID(2 * (i % 2))
		b := a + 1
		if _, _, err := c.Transfer(crossOps(d, a, b)); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(start)
	t.Logf("parallel max=%v (sum %v), serial=%v", maxDur(d1, d2), serialEstimate, serial)
	if maxDur(d1, d2) > serial {
		t.Fatalf("disjoint cross-shard pairs showed no parallelism: parallel=%v serial=%v",
			maxDur(d1, d2), serial)
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// TestSuperPrimarySerializesSharedPairs checks the §3.2 rule: transactions
// over cluster sets with a common min cluster route through one primary,
// which orders them without conflicts (no withdrawals needed).
func TestSuperPrimarySerializesSharedPairs(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 3)
	c1, c2 := d.NewClient(), d.NewClient()
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 10; i++ {
			if _, _, err := c1.Transfer(crossOps(d, 0, 1)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 10; i++ {
			if _, _, err := c2.Transfer(crossOps(d, 0, 2)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitQuiesce(t, d)
	if err := d.DAG().VerifyPairwiseOrder(); err != nil {
		t.Fatal(err)
	}
}
