package core

import (
	"errors"
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
	n.ingestFromPool(tx, now)
	n.requeueOrphans([]*types.Transaction{tx})
	if len(n.pendingIntra) != 0 || n.queued[tx.ID] {
		t.Fatalf("appended transaction queued for proposal again (%d pending)", len(n.pendingIntra))
	}
	if _, ok := n.inFlight[tx.ID]; ok {
		t.Fatal("appended transaction proposed again")
	}
	if kept := n.dropCommitted([]*types.Transaction{tx}); len(kept) != 0 {
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
	if len(first) != 1 || first[0].resend || !first[0].r.Committed {
		t.Fatalf("first execution: %+v", first)
	}
	second := n.exec.applyBlock(&tasks[1])
	if len(second) != 1 || !second[0].resend || !second[0].r.Committed {
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
		gwNode.window.Put(id, &types.Reply{TxID: id, Replica: gwNode.ID(), Committed: true})
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
