package core

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"sharper/internal/mempool"
	"sharper/internal/types"
)

// idleNode returns cluster 0's primary in a deployment that never starts, so
// a test can drive the loop-owned paths of one node by hand.
func idleNode(t *testing.T) (*Deployment, *Node) {
	t.Helper()
	d, err := testDeployment(t, Config{Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(8, 1_000)
	t.Cleanup(d.Stop)
	return d, d.Node(d.Topo.Members(0)[0])
}

// TestWindowScreensAppendedTxAtIngest: a transaction whose block is on the
// chain but not yet executed has a pending window entry. Every path that
// could feed it to consensus again — the pool pump, the orphan requeue, a
// queued cross-shard launch — sees it and drops it.
func TestWindowScreensAppendedTxAtIngest(t *testing.T) {
	d, n := idleNode(t)
	c := d.NewClient()
	tx := c.MakeTx(intraOps(d, 0))
	if err := n.appendBlock(&types.Block{Txs: []*types.Transaction{tx}, Parents: []types.Hash{n.view.Head()}}); err != nil {
		t.Fatal(err)
	}
	if _, settled := n.window.Get(tx.ID); settled {
		t.Fatal("an appended, unexecuted transaction already has a verdict")
	}
	now := time.Now()
	if code := n.gw.pool.Admit(tx, now); code != mempool.Admitted {
		t.Fatalf("admit: %d", code)
	}
	recs := n.gw.pool.Drain(1)
	n.ingest(recs, now)
	n.requeueOrphans([]*types.Transaction{tx}, now)
	if len(n.pendingIntra) != 0 {
		t.Fatalf("appended transaction queued for proposal again (%d pending)", len(n.pendingIntra))
	}
	head, _ := n.intra.ProposedHead()
	n.flushIntra(now)
	if seq, _ := n.intra.ProposedHead(); seq != head {
		t.Fatal("appended transaction proposed again")
	}
	if kept := n.dropCommitted(recs); len(kept) != 0 {
		t.Fatal("appended transaction kept in a launching batch")
	}
}

// TestWindowOrderedTwiceExecutesOnce: one transaction ordered in two blocks
// executes once. The first block's own pending note does not make its
// execution look like a repeat; the second block only re-replies, with the
// first execution's verdict.
func TestWindowOrderedTwiceExecutesOnce(t *testing.T) {
	d, n := idleNode(t)
	c := d.NewClient()
	tx := c.MakeTx(intraOps(d, 0))
	from := tx.Ops[0].From
	before := n.store.Balance(from)
	var tasks []commitTask
	for i := 0; i < 2; i++ {
		b := &types.Block{Txs: []*types.Transaction{tx}, Parents: []types.Hash{n.view.Head()}}
		if err := n.appendBlock(b); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, commitTask{seq: uint64(n.view.Len() - 1), block: b, valid: ^uint64(0)})
	}
	first := n.exec.applyBlock(&tasks[0])
	if len(first) != 1 || first[0].resend || !first[0].committed {
		t.Fatalf("first execution: %+v", first)
	}
	second := n.exec.applyBlock(&tasks[1])
	if len(second) != 1 || !second[0].resend || !second[0].committed {
		t.Fatalf("second occurrence was not a re-reply: %+v", second)
	}
	if got := n.Committed(); got != 1 {
		t.Fatalf("committed %d times, want once", got)
	}
	if got, want := n.store.Balance(from), before-tx.Ops[0].Amount; got != want {
		t.Fatalf("balance %d after two orderings, want %d (applied once)", got, want)
	}
}

// TestWindowAnswersRetransmissionPastOldCountBound: more transactions commit
// inside one TTL than the reply cache's old count bound (1<<17) held. A
// retransmission of the first is still answered from the window with its
// verdict, and nothing is ordered again.
func TestWindowAnswersRetransmissionPastOldCountBound(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	c := d.NewClient()
	gwNode := d.Node(d.Topo.Members(0)[0])
	tx := c.MakeTx(intraOps(d, 0))
	submitTo(c, gwNode.ID(), tx)
	if code, from := awaitVerdict(t, c, tx.ID, 5*time.Second); code != types.SubmitCommitted {
		t.Fatalf("submit: got %s from %s, want committed", code, from)
	}
	waitQuiesce(t, d)
	// The load that followed: 1<<17 + 1 later commits at this replica.
	for seq := uint64(1); seq <= 1<<17+1; seq++ {
		id := types.TxID{Client: types.ClientIDBase + 1<<19, Seq: seq}
		gwNode.window.Put(id, true)
	}
	before, blocks := d.TotalCommitted(), gwNode.View().Len()
	submitTo(c, gwNode.ID(), tx)
	if code, from := awaitVerdict(t, c, tx.ID, 5*time.Second); code != types.SubmitCommitted {
		t.Fatalf("retransmission: got %s from %s, want committed", code, from)
	}
	waitQuiesce(t, d)
	if after := d.TotalCommitted(); after != before || gwNode.View().Len() != blocks {
		t.Fatalf("retransmission was ordered again: %d → %d commits, %d → %d blocks",
			before, after, blocks, gwNode.View().Len())
	}
}

// TestWindowForgetsOnlyWhatAdmissionRejects: the window forgets a committed
// transaction at the admission TTL and not before, and a resubmission after
// that is answered Expired by the pool — which is why forgetting it is safe.
func TestWindowForgetsOnlyWhatAdmissionRejects(t *testing.T) {
	const ttl = 200 * time.Millisecond
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 42,
		Mempool: mempool.Config{TTL: ttl},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	c.Timeout = 2 * time.Second
	tx := c.MakeTx(intraOps(d, 0))
	if ok, _, err := c.Submit(tx); err != nil || !ok {
		t.Fatalf("submit: ok=%v err=%v", ok, err)
	}
	members := d.Topo.Members(0)
	for _, id := range members {
		n := d.Node(id)
		waitFor(t, "the window to forget the transaction", func() bool { return !n.window.Contains(tx.ID) })
		if age := time.Since(time.Unix(0, tx.Timestamp)); age < ttl {
			t.Fatalf("%s forgot the transaction %s after its timestamp, inside the %s TTL", id, age, ttl)
		}
	}
	waitQuiesce(t, d)
	before := d.TotalCommitted()
	if _, _, err := c.Submit(tx); !errors.Is(err, ErrExpired) {
		t.Fatalf("resubmission past the TTL: err = %v, want ErrExpired", err)
	}
	waitQuiesce(t, d)
	if after := d.TotalCommitted(); after != before {
		t.Fatalf("forgotten transaction was ordered again (%d → %d commits)", before, after)
	}
}

// TestWindowRejectedVerdictsSurviveRestart: a checkpoint carries every
// rejected verdict still inside the admission TTL, however many there are. A
// durable replica rejects an overdraft, then more than 1<<17 further
// transactions (the count the rejected-verdict list checkpoints carried was
// once capped at, first in first out), checkpoints and restarts. A
// retransmission of the first overdraft is still answered rejected — not
// committed, which is what a restarted replica assumes of every transaction
// its snapshot covers that the checkpoint does not list.
func TestWindowRejectedVerdictsSurviveRestart(t *testing.T) {
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 11,
		DataDir: t.TempDir(), CheckpointInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(32, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	victim := d.Topo.Members(0)[2]
	overdraft := c.MakeTx([]types.Op{{
		From:   d.Shards.AccountInShard(0, 0),
		To:     d.Shards.AccountInShard(0, 1),
		Amount: 5_000_000, // seeded balance is 1M
	}})
	if ok, _, err := c.Submit(overdraft); err != nil || ok {
		t.Fatalf("overdraft: ok=%v err=%v, want rejected", ok, err)
	}
	waitQuiesce(t, d)
	vn := d.Node(victim)
	waitFor(t, "the victim to settle the overdraft", func() bool {
		_, settled := vn.window.Get(overdraft.ID)
		return settled
	})
	// The rejections that followed, as the executor settles them.
	for seq := uint64(1); seq <= 1<<17+1; seq++ {
		vn.window.Put(types.TxID{Client: types.ClientIDBase + 1<<19, Seq: seq}, false)
	}
	// A checkpoint cut after all of them, covering the overdraft's block.
	awaitFreshCheckpoint(t, d, c, victim)
	waitQuiesce(t, d)
	d.CrashNode(victim)
	if _, err := d.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	submitTo(c, victim, overdraft)
	if code, from := awaitVerdict(t, c, overdraft.ID, 5*time.Second); code != types.SubmitRejected {
		t.Fatalf("retransmitted overdraft after restart: got %s from %s, want rejected", code, from)
	}
}

// TestWindowExpiredRejectionAfterRestart: a rejected transaction whose
// window entry was swept before the checkpoint is not on the checkpoint's
// rejected list. A restarted replica must not read its absence as
// committed: a retransmission is answered Expired, as it is before the
// restart once the window has forgotten the transaction.
func TestWindowExpiredRejectionAfterRestart(t *testing.T) {
	const ttl = 300 * time.Millisecond
	d, err := testDeployment(t, Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 12,
		DataDir: t.TempDir(), CheckpointInterval: 4,
		Mempool: mempool.Config{TTL: ttl},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(32, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	c := d.NewClient()
	victim := d.Topo.Members(0)[2]
	overdraft := c.MakeTx([]types.Op{{
		From:   d.Shards.AccountInShard(0, 0),
		To:     d.Shards.AccountInShard(0, 1),
		Amount: 5_000_000, // seeded balance is 1M
	}})
	if ok, _, err := c.Submit(overdraft); err != nil || ok {
		t.Fatalf("overdraft: ok=%v err=%v, want rejected", ok, err)
	}
	vn := d.Node(victim)
	waitFor(t, "the victim to settle the overdraft", func() bool {
		_, settled := vn.window.Get(overdraft.ID)
		return settled
	})
	waitFor(t, "the victim's window to forget the overdraft", func() bool { return !vn.window.Contains(overdraft.ID) })
	// A checkpoint cut after the sweep, covering the overdraft's block.
	awaitFreshCheckpoint(t, d, c, victim)
	waitQuiesce(t, d)
	d.CrashNode(victim)
	if _, err := d.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	submitTo(c, victim, overdraft)
	if code, from := awaitVerdict(t, c, overdraft.ID, 5*time.Second); code != types.SubmitExpired {
		t.Fatalf("retransmitted expired overdraft after restart: got %s from %s, want expired", code, from)
	}
}

// awaitFreshCheckpoint commits transfers in cluster 0 until node id writes a
// checkpoint it had not written when called. A node attempts at most one
// checkpoint a second, so this can take that long.
func awaitFreshCheckpoint(t *testing.T, d *Deployment, c *Client, id types.NodeID) {
	t.Helper()
	ckptGlob := filepath.Join(NodeDataDir(d.DataDir(), id), "checkpoint-*.ckpt")
	before, err := filepath.Glob(ckptGlob)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(before))
	for _, f := range before {
		seen[f] = true
	}
	fresh := func() bool {
		after, _ := filepath.Glob(ckptGlob)
		for _, f := range after {
			if !seen[f] {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for !fresh() {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written within 10s of commits")
		}
		if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
			t.Fatal(err)
		}
	}
}
