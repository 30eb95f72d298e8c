package core

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/types"
)

// TestPipelineCrashRecoveryReplaysUnappliedSuffix is the commit-pipeline
// crash scenario: a replica dies with a checkpointed prefix on disk plus a
// chain-log suffix the checkpoint does not cover (committed and durable,
// but whose store effects live only in the dead process's memory). The
// restarted incarnation must replay that suffix over the snapshot — with
// the logged validity bitmaps, so remote shards' vetoes reproduce — and
// rebuild the reply cache so a retransmission of a pre-crash transaction
// is re-replied with its original verdict instead of re-ordered.
func TestPipelineCrashRecoveryReplaysUnappliedSuffix(t *testing.T) {
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 99,
		DataDir: t.TempDir(), CheckpointInterval: 4,
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
			if i%3 == 2 {
				ops = crossOps(d, 0, 1)
			} else {
				ops = intraOps(d, 0)
			}
			if _, _, err := c.Transfer(ops); err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
		}
	}

	victim := d.Topo.Members(0)[2]
	workload(10)
	// A vetoed cross-shard overdraft ordered before the crash: its verdict
	// must survive the restart via log replay, not re-execution guesswork.
	overdraft := c.MakeTx([]types.Op{{
		From:   d.Shards.AccountInShard(1, 0),
		To:     d.Shards.AccountInShard(0, 0),
		Amount: 5_000_000, // seeded balance is 1M
	}})
	if ok, _, err := c.Submit(overdraft); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("overdraft reported committed")
	}
	workload(10)
	waitQuiesce(t, d)

	// The scenario needs both halves on disk: a checkpoint (the applied
	// prefix) and chain-log blocks past it (the unapplied suffix).
	lenAtCrash := d.Node(victim).View().Len()
	ckpts, err := filepath.Glob(filepath.Join(NodeDataDir(d.DataDir(), victim), "checkpoint-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) == 0 {
		t.Fatalf("no checkpoint written after %d blocks (interval 4); suffix replay untested", lenAtCrash)
	}
	d.CrashNode(victim)
	workload(6) // the cluster keeps committing while the victim is down

	n2, err := d.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if got := n2.RecoveredBlocks(); got < lenAtCrash-1 {
		t.Fatalf("recovered only %d blocks from storage; had %d before the crash", got, lenAtCrash-1)
	}
	// The reply cache must hold the pre-crash verdict immediately after
	// recovery — before any catch-up traffic — or a retransmission would be
	// re-proposed and double-ordered.
	if committed, ok := n2.window.Get(overdraft.ID); !ok {
		t.Fatal("restarted replica lost the overdraft's reply-cache entry")
	} else if committed {
		t.Fatal("restarted replica reconstructed the overdraft as committed")
	}

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
	waitQuiesce(t, d)

	// End-to-end verdict reconstruction: the client retransmits the exact
	// pre-crash transaction and must get the original rejection back.
	if ok, _, err := c.Submit(overdraft); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("retransmitted overdraft committed after restart")
	}

	want := ref.Store().Snapshot()
	got := n2.Store().Snapshot()
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("account %s: restarted replica has %d, peer %d", k, got[k], v)
		}
	}
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify after restart: %v", err)
	}
}

// TestPipelineFingerprintMatchesSerialReplay is the parallel-apply
// equivalence audit, in-process: striped, wave-partitioned apply must leave
// every store byte-identical to applying the same chain strictly serially in
// block order. The reference is each stopped replica's own committed chain,
// read back from its chain log with the logged validity bitmaps and replayed
// one transaction at a time over a freshly seeded store. Concurrent clients
// hammer a handful of accounts with batched blocks so one block carries
// transactions that share stripes (later waves) and transactions that do not
// (one parallel wave); overdrafts make the outcome order-dependent, so a wave
// partitioning that let conflicting transactions race shows up as a
// fingerprint mismatch. Run under -race this also exercises the stripe
// locking itself.
func TestPipelineFingerprintMatchesSerialReplay(t *testing.T) {
	const perShard, balance = 64, 40
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 7, BatchSize: 16,
		DataDir: t.TempDir(), CheckpointInterval: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(perShard, balance)
	d.Start()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := d.NewClient()
			for i := 0; i < 24; i++ {
				k := w*24 + i
				shard := types.ClusterID(k % 2)
				ops := []types.Op{{
					From:   d.Shards.AccountInShard(shard, uint64(k%5)),
					To:     d.Shards.AccountInShard(shard, uint64((k+1+k/5)%8)),
					Amount: int64(7 + k%23), // some overdraw a drained account
				}}
				if k%6 == 5 {
					ops = []types.Op{{
						From:   d.Shards.AccountInShard(shard, uint64(k%5)),
						To:     d.Shards.AccountInShard(1-shard, uint64(k%8)),
						Amount: int64(7 + k%23),
					}}
				}
				if _, _, err := c.Transfer(ops); err != nil {
					t.Errorf("client %d tx %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitQuiesce(t, d)
	d.Stop() // drains the pipeline; fingerprints below are final

	rejected := false
	for _, n := range d.Nodes() {
		st, err := storage.Open(NodeDataDir(d.DataDir(), n.ID()), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := st.Recovered()
		st.Close()
		if len(rec.Blocks) != n.View().Len()-1 {
			t.Fatalf("node %s: chain log holds %d blocks, view %d", n.ID(), len(rec.Blocks), n.View().Len()-1)
		}
		ref := state.NewStore(n.Cluster(), d.Shards)
		for k := 0; k < perShard; k++ {
			ref.Credit(d.Shards.AccountInShard(n.Cluster(), uint64(k)), balance)
		}
		seen := make(map[types.TxID]bool)
		for i, b := range rec.Blocks {
			for j, tx := range b.Txs {
				if seen[tx.ID] {
					continue // ordered twice: the first execution won
				}
				seen[tx.ID] = true
				if rec.Valid[i]&(1<<uint(j)) == 0 || ref.Apply(tx) != nil {
					rejected = true
				}
			}
		}
		if got, want := n.Store().Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("node %s (cluster %s): pipelined store diverged from the serial replay of its own chain",
				n.ID(), n.Cluster())
		}
	}
	if !rejected {
		t.Fatal("workload produced no rejected transaction; the order-dependence the audit relies on is untested")
	}
}

// TestPipelineBackpressureKeepsCommitting pins the pipeline's backpressure
// contract: with a pathologically small executor bound the loop must stop
// *proposing* when the pipeline is full — never stop receiving — so the
// deployment stays live (slowly) instead of deadlocking or dropping
// blocks, and every block still applies exactly once.
func TestPipelineBackpressureKeepsCommitting(t *testing.T) {
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 21,
		PipelineDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	for i := 0; i < 24; i++ {
		var ops []types.Op
		if i%4 == 3 {
			ops = crossOps(d, 0, 1)
		} else {
			ops = intraOps(d, types.ClusterID(i%2))
		}
		if ok, _, err := c.Transfer(ops); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		} else if !ok {
			t.Fatalf("tx %d rejected", i)
		}
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
	for _, n := range d.Nodes() {
		if n.Anomalies() != 0 {
			t.Fatalf("node %s recorded %d anomalies under backpressure", n.ID(), n.Anomalies())
		}
	}
}
