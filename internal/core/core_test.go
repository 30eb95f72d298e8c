package core

import (
	"sync"
	"testing"
	"time"

	"sharper/internal/matrix"
	"sharper/internal/types"
)

// testDeployment is NewDeployment under CI's configuration matrix: every
// knob the test leaves zero takes the matrix job's value (internal/matrix).
// Tests build their deployments here unless they set the knob themselves.
func testDeployment(tb testing.TB, cfg Config) (*Deployment, error) {
	matrix.Apply(tb, &cfg.BatchSize, &cfg.VerifyWindow, &cfg.Trace, &cfg.DataDir, &cfg.Sync)
	return NewDeployment(cfg)
}

func newTestDeployment(t *testing.T, model types.FailureModel, clusters int) *Deployment {
	t.Helper()
	d, err := testDeployment(t, Config{
		Model:    model,
		Clusters: clusters,
		F:        1,
		Seed:     42,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)
	return d
}

func intraOps(d *Deployment, c types.ClusterID) []types.Op {
	return []types.Op{{
		From:   d.Shards.AccountInShard(c, 0),
		To:     d.Shards.AccountInShard(c, 1),
		Amount: 5,
	}}
}

func crossOps(d *Deployment, a, b types.ClusterID) []types.Op {
	return []types.Op{{
		From:   d.Shards.AccountInShard(a, 0),
		To:     d.Shards.AccountInShard(b, 1),
		Amount: 5,
	}}
}

func TestIntraShardCommitCrash(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	c := d.NewClient()
	for i := 0; i < 10; i++ {
		ok, _, err := c.Transfer(intraOps(d, 0))
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("tx %d rejected", i)
		}
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
}

func TestCrossShardCommitCrash(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 3)
	c := d.NewClient()
	for i := 0; i < 10; i++ {
		ok, _, err := c.Transfer(crossOps(d, 0, 1))
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("tx %d rejected", i)
		}
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
	// The cross-shard blocks must appear in both involved views.
	views := d.ClusterViews()
	if got := len(views[0].CrossShardBlocks()); got != 10 {
		t.Fatalf("cluster 0 has %d cross-shard blocks, want 10", got)
	}
	if got := len(views[1].CrossShardBlocks()); got != 10 {
		t.Fatalf("cluster 1 has %d cross-shard blocks, want 10", got)
	}
	if got := len(views[2].CrossShardBlocks()); got != 0 {
		t.Fatalf("cluster 2 has %d cross-shard blocks, want 0", got)
	}
}

func TestIntraShardCommitByzantine(t *testing.T) {
	d := newTestDeployment(t, types.Byzantine, 2)
	c := d.NewClient()
	for i := 0; i < 5; i++ {
		ok, _, err := c.Transfer(intraOps(d, 1))
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("tx %d rejected", i)
		}
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
}

func TestCrossShardCommitByzantine(t *testing.T) {
	d := newTestDeployment(t, types.Byzantine, 3)
	c := d.NewClient()
	for i := 0; i < 5; i++ {
		ok, _, err := c.Transfer(crossOps(d, 1, 2))
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("tx %d rejected", i)
		}
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	for _, model := range []types.FailureModel{types.CrashOnly, types.Byzantine} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			d := newTestDeployment(t, model, 4)
			const clients = 8
			const perClient = 10
			var wg sync.WaitGroup
			errs := make(chan error, clients*perClient)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					c := d.NewClient()
					c.Timeout = 5 * time.Second // headroom for -race runs
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
							errs <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("client error: %v", err)
			}
			waitQuiesce(t, d)
			dag := d.DAG()
			if err := dag.Verify(); err != nil {
				t.Fatalf("DAG verify: %v", err)
			}
			if err := dag.VerifyPairwiseOrder(); err != nil {
				t.Fatalf("pairwise order: %v", err)
			}
			for _, n := range d.Nodes() {
				if n.Anomalies() != 0 {
					t.Fatalf("node %s observed %d ledger anomalies", n.ID(), n.Anomalies())
				}
			}
		})
	}
}

// TestReplicaConsistency checks that all replicas of a cluster converge to
// the same chain after traffic stops.
func TestReplicaConsistency(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	c := d.NewClient()
	for i := 0; i < 20; i++ {
		if _, _, err := c.Transfer(crossOps(d, 0, 1)); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	waitQuiesce(t, d)
	for _, cid := range d.Topo.ClusterIDs() {
		members := d.Topo.Members(cid)
		ref := d.Node(members[0]).View()
		for _, m := range members[1:] {
			v := d.Node(m).View()
			if v.Len() != ref.Len() {
				t.Fatalf("cluster %s: node %s has %d blocks, node %s has %d",
					cid, m, v.Len(), members[0], ref.Len())
			}
			if v.Head() != ref.Head() {
				t.Fatalf("cluster %s: head mismatch between %s and %s", cid, m, members[0])
			}
		}
	}
}

// waitQuiesce waits until commit counts stop changing so verification sees a
// settled ledger.
func waitQuiesce(t *testing.T, d *Deployment) {
	t.Helper()
	var last int64 = -1
	for i := 0; i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
		var cur int64
		for _, n := range d.Nodes() {
			cur += n.Committed()
		}
		if cur == last {
			return
		}
		last = cur
	}
	t.Fatalf("deployment did not quiesce")
}
