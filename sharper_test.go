package sharper

import (
	"sync"
	"testing"
	"time"
)

// retryAttemptsFor sizes a client's retransmission budget off the test's
// own deadline: as many perAttempt windows as fit before it (minus a margin
// for the audit and teardown), never fewer than the default 8, capped so a
// genuinely wedged cluster still fails with time to report.
func retryAttemptsFor(t *testing.T, perAttempt time.Duration) int {
	t.Helper()
	const floor, cap = 8, 60
	deadline, ok := t.Deadline()
	if !ok {
		return cap // no -timeout: be patient
	}
	n := int((time.Until(deadline) - 10*time.Second) / perAttempt)
	if n < floor {
		return floor
	}
	if n > cap {
		return cap
	}
	return n
}

func newNet(t *testing.T, model FailureModel, clusters int) *Network {
	t.Helper()
	n, err := New(WithMatrix(t, Options{
		Model:            model,
		Clusters:         clusters,
		F:                1,
		AccountsPerShard: 32,
		InitialBalance:   1000,
		Seed:             7,
	}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestIntraShardTransfer(t *testing.T) {
	n := newNet(t, CrashOnly, 2)
	c := n.NewClient()
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(0, 1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.CrossShard {
		t.Fatalf("unexpected result: %+v", res)
	}
	waitBalance(t, n, n.AccountInShard(0, 1), 1100)
}

func TestCrossShardTransfer(t *testing.T) {
	n := newNet(t, CrashOnly, 3)
	c := n.NewClient()
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(2, 0), 250)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || !res.CrossShard {
		t.Fatalf("unexpected result: %+v", res)
	}
	waitBalance(t, n, n.AccountInShard(2, 0), 1250)
	waitBalance(t, n, n.AccountInShard(0, 0), 750)
}

func TestOverdraftRejected(t *testing.T) {
	n := newNet(t, CrashOnly, 2)
	c := n.NewClient()
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(1, 0), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("overdraft committed")
	}
	if got := n.Balance(n.AccountInShard(1, 0)); got != 1000 {
		t.Fatalf("balance mutated by rejected tx: %d", got)
	}
}

func TestByzantineDeployment(t *testing.T) {
	n := newNet(t, Byzantine, 2)
	c := n.NewClient()
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(1, 0), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("transfer rejected")
	}
}

func TestVerifyAfterMixedLoad(t *testing.T) {
	n := newNet(t, CrashOnly, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := n.NewClient()
			for j := 0; j < 10; j++ {
				from := n.AccountInShard(ClusterID(k), uint64(j%8))
				to := n.AccountInShard(ClusterID((k+j)%4), uint64((j+1)%8))
				if from == to {
					continue
				}
				if _, err := c.Transfer(from, to, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	time.Sleep(200 * time.Millisecond) // quiesce
	if err := n.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCrashBackupTolerated(t *testing.T) {
	n := newNet(t, CrashOnly, 2)
	if err := n.CrashNode(0, 2); err != nil { // a backup, not the primary
		t.Fatal(err)
	}
	c := n.NewClient()
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(0, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("transfer rejected with one crashed backup")
	}
}

func TestCrashPrimaryViewChange(t *testing.T) {
	n := newNet(t, CrashOnly, 2)
	c := n.NewClient()
	// The default client budget (8 attempts × 2s) can be missed when a view
	// change lands under heavy parallel package load; scale the attempt
	// budget off the test's own deadline instead of racing a fixed 16s.
	c.SetRetry(2*time.Second, retryAttemptsFor(t, 2*time.Second))
	// Commit one transaction so the cluster is warm.
	if _, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := n.CrashNode(0, 0); err != nil { // the view-0 primary
		t.Fatal(err)
	}
	// The next transfer must survive the view change (client retransmits to
	// the new primary after its timeout).
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(0, 1), 2)
	if err != nil {
		t.Fatalf("transfer after primary crash: %v", err)
	}
	if !res.Committed {
		t.Fatal("transfer rejected after view change")
	}
}

func TestPlanClusters(t *testing.T) {
	// §3.4 example: 23 Byzantine nodes, groups (7, f=2) and (16, f=1) → 5
	// clusters instead of 2 under a global f=3.
	plan, err := PlanClusters(Byzantine, []Group{{Nodes: 7, F: 2}, {Nodes: 16, F: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumClusters() != 5 {
		t.Fatalf("plan has %d clusters, want 5", plan.NumClusters())
	}
	n, err := New(WithMatrix(t, Options{
		Model: Byzantine, Plan: plan,
		AccountsPerShard: 8, InitialBalance: 100, Seed: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c := n.NewClient()
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(4, 0), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("cross-shard transfer rejected on heterogeneous plan")
	}
}

func TestPlanClustersTooSmall(t *testing.T) {
	if _, err := PlanClusters(Byzantine, []Group{{Nodes: 3, F: 1}}); err == nil {
		t.Fatal("expected error for undersized group")
	}
}

func waitBalance(t *testing.T, n *Network, a AccountID, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := n.Balance(a); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("account %s: balance %d, want %d", a, n.Balance(a), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHybridFailureModels(t *testing.T) {
	// §3.4 hybrid cloud: a private crash-only group next to a public
	// Byzantine one. Cross-shard transactions span both.
	plan, err := PlanHybridClusters([]HybridGroup{
		{Nodes: 3, F: 1, Model: CrashOnly}, // 1 Paxos cluster
		{Nodes: 8, F: 1, Model: Byzantine}, // 2 PBFT clusters
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumClusters() != 3 {
		t.Fatalf("plan has %d clusters, want 3", plan.NumClusters())
	}
	n, err := New(WithMatrix(t, Options{
		Plan:             plan,
		AccountsPerShard: 16,
		InitialBalance:   1000,
		Seed:             5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c := n.NewClient()

	// Intra-shard on the crash cluster, intra-shard on a Byzantine one.
	for _, shard := range []ClusterID{0, 1} {
		res, err := c.Transfer(n.AccountInShard(shard, 0), n.AccountInShard(shard, 1), 10)
		if err != nil {
			t.Fatalf("intra tx on shard %d: %v", shard, err)
		}
		if !res.Committed {
			t.Fatalf("intra tx on shard %d rejected", shard)
		}
	}
	// Cross-shard between the crash cluster and a Byzantine one.
	res, err := c.Transfer(n.AccountInShard(0, 0), n.AccountInShard(2, 0), 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || !res.CrossShard {
		t.Fatalf("hybrid cross-shard tx: %+v", res)
	}
	waitBalance(t, n, n.AccountInShard(2, 0), 1025)
	time.Sleep(200 * time.Millisecond)
	if err := n.Verify(); err != nil {
		t.Fatal(err)
	}
}
