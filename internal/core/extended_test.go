package core

import (
	"sync"
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/ledger"
	"sharper/internal/types"
)

// TestThreeShardTransaction commits a transaction spanning three clusters:
// the block must appear in all three views with three parent hashes.
func TestThreeShardTransaction(t *testing.T) {
	for _, model := range []types.FailureModel{types.CrashOnly, types.Byzantine} {
		t.Run(model.String(), func(t *testing.T) {
			d := newTestDeployment(t, model, 4)
			c := d.NewClient()
			ok, _, err := c.Transfer([]types.Op{
				{From: d.Shards.AccountInShard(0, 0), To: d.Shards.AccountInShard(1, 0), Amount: 5},
				{From: d.Shards.AccountInShard(1, 1), To: d.Shards.AccountInShard(3, 0), Amount: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("three-shard tx rejected")
			}
			waitQuiesce(t, d)
			for _, cid := range []types.ClusterID{0, 1, 3} {
				v := d.Node(d.Topo.Members(cid)[0]).View()
				blocks := v.CrossShardBlocks()
				if len(blocks) != 1 {
					t.Fatalf("cluster %s has %d cross-shard blocks, want 1", cid, len(blocks))
				}
				if len(blocks[0].Parents) != 3 {
					t.Fatalf("cross-shard block has %d parents, want 3", len(blocks[0].Parents))
				}
			}
			if v := d.Node(d.Topo.Members(2)[0]).View(); len(v.CrossShardBlocks()) != 0 {
				t.Fatal("uninvolved cluster 2 received the block")
			}
			if err := d.DAG().Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestViewChangeUnderCrossShardLoad crashes the primary of a participant
// cluster mid-workload: the view change must let cross-shard traffic keep
// committing.
func TestViewChangeUnderCrossShardLoad(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 3)
	c := d.NewClient()
	c.Timeout = 3 * time.Second
	for i := 0; i < 5; i++ {
		if _, _, err := c.Transfer(crossOps(d, 0, 1)); err != nil {
			t.Fatalf("warmup tx %d: %v", i, err)
		}
	}
	// Crash cluster 1's primary (a participant in the {0,1} transactions).
	crashed := d.Topo.Primary(1, 0)
	d.CrashNode(crashed)
	for i := 0; i < 5; i++ {
		if _, _, err := c.Transfer(crossOps(d, 0, 1)); err != nil {
			t.Fatalf("tx %d after participant-primary crash: %v", i, err)
		}
	}
	waitQuiesce(t, d)
	// Audit using live replicas only — the crashed node legitimately
	// misses everything after its failure.
	var views []*ledger.View
	for _, cid := range d.Topo.ClusterIDs() {
		for _, m := range d.Topo.Members(cid) {
			if m != crashed {
				views = append(views, d.Node(m).View())
				break
			}
		}
	}
	if err := ledger.NewDAG(views...).Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestInitiatorPrimaryCrash crashes the super primary itself: clients must
// reach the cluster's next primary through retransmission and the request
// suspicion path.
func TestInitiatorPrimaryCrash(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	c := d.NewClient()
	c.Timeout = 2 * time.Second
	if _, _, err := c.Transfer(crossOps(d, 0, 1)); err != nil {
		t.Fatal(err)
	}
	d.CrashNode(d.Topo.Primary(0, 0)) // super primary for {0,1}
	ok, _, err := c.Transfer(crossOps(d, 0, 1))
	if err != nil {
		t.Fatalf("cross-shard tx after initiator crash: %v", err)
	}
	if !ok {
		t.Fatal("tx rejected after view change")
	}
}

// TestByzantineEquivocatingVotes injects signed, conflicting cross-shard
// accepts from a compromised replica (we hold its real key): safety must
// hold — no fork, consistent DAG — because quorums need 2f+1 matching votes
// and one liar cannot tip them.
func TestByzantineEquivocatingVotes(t *testing.T) {
	d := newTestDeployment(t, types.Byzantine, 2)
	evil := d.Topo.Members(1)[3] // a backup of cluster 1
	d.CrashNode(evil)            // silence its honest process; we speak for it
	signer, err := d.Keyring.SignerFor(evil)
	if err != nil {
		t.Fatal(err)
	}

	// Fire a stream of forged accepts claiming absurd chain heads for every
	// plausible digest-less key while real traffic runs.
	stopForge := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stopForge:
				return
			default:
			}
			i++
			m := &types.ConsensusMsg{
				View:       uint64(i % 3),
				Digest:     types.HashBytes([]byte{byte(i)}),
				Cluster:    1,
				PrevHashes: []types.Hash{types.HashBytes([]byte{byte(i), 0xee})},
			}
			payload := m.Encode(nil)
			env := &types.Envelope{Type: types.MsgXAccept, From: evil,
				Payload: payload, Sig: signer.Sign(payload)}
			for _, id := range d.Topo.AllNodes() {
				if id != evil {
					d.Net.Send(id, env)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	c := d.NewClient()
	c.Timeout = 3 * time.Second
	for i := 0; i < 10; i++ {
		var ops []types.Op
		if i%2 == 0 {
			ops = crossOps(d, 0, 1)
		} else {
			ops = intraOps(d, 1)
		}
		if _, _, err := c.Transfer(ops); err != nil {
			t.Fatalf("tx %d under equivocation: %v", i, err)
		}
	}
	close(stopForge)
	wg.Wait()
	waitQuiesce(t, d)
	dag := d.DAG()
	if err := dag.Verify(); err != nil {
		t.Fatalf("forged votes broke the ledger: %v", err)
	}
	if err := dag.VerifyPairwiseOrder(); err != nil {
		t.Fatal(err)
	}
}

// TestByzantineForgedCommitRejected sends a commit with a fabricated hash
// list signed by one compromised node: a single commit cannot decide (2f+1
// needed per cluster), so no replica may append the fabricated block.
func TestByzantineForgedCommitRejected(t *testing.T) {
	d := newTestDeployment(t, types.Byzantine, 2)
	evil := d.Topo.Members(0)[2]
	d.CrashNode(evil)
	signer, err := d.Keyring.SignerFor(evil)
	if err != nil {
		t.Fatal(err)
	}
	fake := &types.Transaction{
		ID:        types.TxID{Client: types.ClientIDBase + 999, Seq: 1},
		Client:    types.ClientIDBase + 999,
		Ops:       []types.Op{{From: d.Shards.AccountInShard(0, 0), To: d.Shards.AccountInShard(1, 0), Amount: 999999}},
		Involved:  types.NewClusterSet(0, 1),
		Timestamp: 1,
	}
	m := &types.ConsensusMsg{
		View: 1, Seq: 1, Digest: types.BatchDigest([]*types.Transaction{fake}), Cluster: 0,
		PrevHashes: []types.Hash{types.HashBytes([]byte("a")), types.HashBytes([]byte("b"))},
		Txs:        []*types.Transaction{fake},
	}
	payload := m.Encode(nil)
	env := &types.Envelope{Type: types.MsgXCommit, From: evil,
		Payload: payload, Sig: signer.Sign(payload)}
	for _, id := range d.Topo.AllNodes() {
		d.Net.Send(id, env)
	}
	time.Sleep(200 * time.Millisecond)
	for _, n := range d.Nodes() {
		if n.View().Contains(fake.ID) {
			t.Fatalf("node %s appended a block decided by one forged commit", n.ID())
		}
	}
}

// TestCrashRestartCatchUp crashes a backup, commits traffic, restarts it,
// and waits for the chain-sync protocol to bring it level.
func TestCrashRestartCatchUp(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	victim := d.Topo.Members(0)[2]
	d.CrashNode(victim)

	c := d.NewClient()
	for i := 0; i < 10; i++ {
		if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
			t.Fatal(err)
		}
	}
	d.Faults().Restart(victim)
	ref := d.Node(d.Topo.Members(0)[0]).View()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := d.Node(victim).View()
		if v.Len() >= ref.Len() && v.Head() == ref.Head() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica stuck at %d blocks, peer at %d", v.Len(), ref.Len())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDisableSuperPrimaryStillSafe runs contended cross-shard traffic with
// independent initiators (the ablation configuration): slower, but safety
// must hold.
func TestDisableSuperPrimaryStillSafe(t *testing.T) {
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 3, F: 1, Seed: 33, DisableSuperPrimary: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := d.NewClient()
			c.Timeout = 5 * time.Second
			for j := 0; j < 8; j++ {
				a := types.ClusterID(k % 3)
				b := types.ClusterID((k + 1) % 3)
				if _, _, err := c.Transfer(crossOps(d, a, b)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitQuiesce(t, d)
	dag := d.DAG()
	if err := dag.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := dag.VerifyPairwiseOrder(); err != nil {
		t.Fatal(err)
	}
}

// TestHeterogeneousTopology runs the §3.4 plan shape directly through the
// core package: clusters of different sizes and fault bounds in one
// deployment.
func TestHeterogeneousTopology(t *testing.T) {
	topo := &consensus.Topology{Model: types.Byzantine, Clusters: map[types.ClusterID]consensus.Cluster{}}
	next := types.NodeID(0)
	add := func(id types.ClusterID, f, size int) {
		cl := consensus.Cluster{ID: id, F: f}
		for i := 0; i < size; i++ {
			cl.Members = append(cl.Members, next)
			next++
		}
		topo.Clusters[id] = cl
	}
	add(0, 2, 7) // f=2 cluster
	add(1, 1, 4) // f=1 cluster
	d, err := testDeployment(t, Config{Model: types.Byzantine, Topology: topo, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(16, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	ok, _, err := c.Transfer(crossOps(d, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cross-shard tx rejected on heterogeneous topology")
	}
}
