package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharper/internal/mempool"
	"sharper/internal/types"
)

// submitTo offers tx directly to one chosen gateway replica, bypassing the
// client's own routing, so tests can exercise specific ingress paths
// (duplicates across nodes, misrouted cross-shard submits).
func submitTo(c *Client, to types.NodeID, tx *types.Transaction) {
	payload := (&types.Submit{Txs: []*types.Transaction{tx}}).Encode(nil)
	c.net.Send(to, &types.Envelope{Type: types.MsgSubmit, From: c.id, Payload: payload})
}

// awaitVerdict drains the client inbox until a submit reply for id arrives.
func awaitVerdict(t *testing.T, c *Client, id types.TxID, timeout time.Duration) (types.SubmitCode, types.NodeID) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case env := <-c.inbox:
			if env.Type != types.MsgSubmitReply {
				continue
			}
			r, err := types.DecodeSubmitReply(env.Payload)
			if err != nil || r.TxID != id {
				continue
			}
			return r.Code, env.From
		case <-deadline:
			t.Fatalf("no submit verdict for %s within %s", id, timeout)
			return 0, 0
		}
	}
}

// TestGatewayDuplicateSubmitAcrossNodes submits the same transaction to two
// different gateway replicas of the owning cluster: it must commit exactly
// once, the first submitter gets a commit verdict from its gateway, and the
// second (post-commit) submit is answered from the reply cache without
// re-driving consensus.
func TestGatewayDuplicateSubmitAcrossNodes(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	c := d.NewClient()
	members := d.Topo.Members(0)
	tx := c.MakeTx(intraOps(d, 0))

	submitTo(c, members[0], tx)
	code, from := awaitVerdict(t, c, tx.ID, 5*time.Second)
	if code != types.SubmitCommitted {
		t.Fatalf("first submit: got %s from %s, want committed", code, from)
	}
	waitQuiesce(t, d)
	before := d.TotalCommitted()

	// Same transaction to a different gateway replica: served from its cached
	// verdict, no new commit.
	submitTo(c, members[1], tx)
	code, from = awaitVerdict(t, c, tx.ID, 5*time.Second)
	if code != types.SubmitCommitted {
		t.Fatalf("duplicate submit: got %s from %s, want committed", code, from)
	}
	if from != members[1] {
		t.Fatalf("duplicate verdict came from %s, want the submitted-to gateway %s", from, members[1])
	}
	waitQuiesce(t, d)
	if after := d.TotalCommitted(); after != before {
		t.Fatalf("duplicate submit drove %d extra commits", after-before)
	}
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
}

// TestGatewayDropsPropagatedExecutedTx replays a peer gateway's propagation
// batch (Via != 0) carrying a transaction the receiver already executed. The
// reply cache screens it before the pool sees it: no pool entry, counted as
// a duplicate, and no second commit.
func TestGatewayDropsPropagatedExecutedTx(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	c := d.NewClient()
	members := d.Topo.Members(0)
	tx := c.MakeTx(intraOps(d, 0))

	submitTo(c, members[0], tx)
	if code, from := awaitVerdict(t, c, tx.ID, 5*time.Second); code != types.SubmitCommitted {
		t.Fatalf("submit: got %s from %s, want committed", code, from)
	}
	waitQuiesce(t, d)
	before := d.TotalCommitted()

	gw := d.Node(members[0]).gw
	admitted, deduped := gw.metrics.Admitted.Load(), gw.metrics.Deduped.Load()
	peer := members[1]
	payload := (&types.Submit{Via: peer, Txs: []*types.Transaction{tx}}).Encode(nil)
	d.NodeFabric(peer).Send(members[0], &types.Envelope{Type: types.MsgSubmit, From: peer, Payload: payload})
	waitFor(t, "the propagated copy to count as a duplicate", func() bool {
		return gw.metrics.Deduped.Load() > deduped
	})
	if got := gw.metrics.Admitted.Load(); got != admitted {
		t.Fatalf("propagated copy of an executed transaction was admitted (%d → %d)", admitted, got)
	}
	if n := gw.pool.PendingCount(); n != 0 {
		t.Fatalf("pool holds %d transactions after the duplicate, want 0", n)
	}
	waitQuiesce(t, d)
	if after := d.TotalCommitted(); after != before {
		t.Fatalf("propagated duplicate drove %d extra commits", after-before)
	}
}

// TestGatewayCrossShardLandsAtLowestInitiator submits a cross-shard
// transaction to a gateway of the *wrong* (higher) involved cluster: the
// gateway must relay it to the lowest involved cluster — the initiator under
// super-primary routing — whose replica answers the client directly, and the
// commit must appear in both involved chains.
func TestGatewayCrossShardLandsAtLowestInitiator(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 3)
	c := d.NewClient()
	tx := c.MakeTx(crossOps(d, 1, 2))
	if got := tx.Involved.Min(); got != 1 {
		t.Fatalf("test workload: initiator cluster = %d, want 1", got)
	}

	// Deliberately misroute to a cluster-2 gateway.
	wrong := d.Topo.Members(2)[0]
	submitTo(c, wrong, tx)
	code, from := awaitVerdict(t, c, tx.ID, 5*time.Second)
	if code != types.SubmitCommitted {
		t.Fatalf("misrouted submit: got %s, want committed", code)
	}
	if cl, ok := d.Topo.ClusterOf(from); !ok || cl != 1 {
		t.Fatalf("verdict came from %s (cluster %d), want an initiator-cluster (1) replica", from, cl)
	}
	waitQuiesce(t, d)
	views := d.ClusterViews()
	if got := len(views[1].CrossShardBlocks()); got != 1 {
		t.Fatalf("initiator cluster has %d cross-shard blocks, want 1", got)
	}
	if got := len(views[2].CrossShardBlocks()); got != 1 {
		t.Fatalf("participant cluster has %d cross-shard blocks, want 1", got)
	}
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
}

// TestGatewaySubmitExpiredDistinctCode checks that a transaction whose client
// timestamp falls outside the mempool TTL is refused with the dedicated
// Expired code — not Overloaded, not a silent timeout — on both fabrics.
func TestGatewaySubmitExpiredDistinctCode(t *testing.T) {
	const ttl = 250 * time.Millisecond
	run := func(t *testing.T, d *Deployment) {
		c := d.NewClient()
		c.Timeout = 2 * time.Second
		tx := c.MakeTx(intraOps(d, 0))
		tx.Timestamp = time.Now().Add(-4 * ttl).UnixNano()
		_, _, err := c.Submit(tx)
		if !errors.Is(err, ErrExpired) {
			t.Fatalf("stale submit: err = %v, want ErrExpired", err)
		}
		// A fresh timestamp goes through.
		ok, _, err := c.Transfer(intraOps(d, 0))
		if err != nil || !ok {
			t.Fatalf("fresh submit: ok=%v err=%v", ok, err)
		}
	}
	t.Run("sim", func(t *testing.T) {
		d, err := NewDeployment(Config{
			Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 42,
			Mempool: mempool.Config{TTL: ttl},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SeedAccounts(64, 1_000_000)
		d.Start()
		t.Cleanup(d.Stop)
		run(t, d)
	})
	t.Run("tcp", func(t *testing.T) {
		cfg := tcpConfig(2)
		cfg.Mempool = mempool.Config{TTL: ttl}
		run(t, startTCP(t, cfg))
	})
}

// TestGatewayOverloadShedsSafely drives far more load than a deliberately
// tiny mempool can hold: admission control must shed with Overloaded (never
// crash a replica), the byte cap must hold at every sampled instant, and the
// ledger must stay consistent and anomaly-free once the storm passes.
func TestGatewayOverloadShedsSafely(t *testing.T) {
	const maxBytes = int64(1 << 10)
	d, err := NewDeployment(Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 42,
		Mempool: mempool.Config{MaxBytes: maxBytes, MaxCount: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	// Monitor the byte cap while the storm runs.
	var capViolations atomic.Int64
	monitorDone := make(chan struct{})
	stopMonitor := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stopMonitor:
				return
			case <-time.After(2 * time.Millisecond):
				for _, n := range d.Nodes() {
					if n.gw.pool.PendingBytes() > maxBytes {
						capViolations.Add(1)
					}
				}
			}
		}
	}()

	const clients, perClient = 24, 30
	var shed, committed, timeouts atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := d.NewClient()
			c.Timeout = time.Second
			c.MaxAttempts = 1
			for j := 0; j < perClient; j++ {
				ok, _, err := c.Transfer(intraOps(d, types.ClusterID(k%2)))
				switch {
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case err != nil:
					timeouts.Add(1)
				case ok:
					committed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stopMonitor)
	<-monitorDone

	if shed.Load() == 0 {
		t.Fatalf("no submits shed (committed=%d timeouts=%d): overload never engaged",
			committed.Load(), timeouts.Load())
	}
	if committed.Load() == 0 {
		t.Fatalf("nothing committed under overload (shed=%d)", shed.Load())
	}
	if v := capViolations.Load(); v != 0 {
		t.Fatalf("pool byte cap exceeded at %d sampled instants", v)
	}
	t.Logf("overload storm: committed=%d shed=%d timeouts=%d",
		committed.Load(), shed.Load(), timeouts.Load())

	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify after overload: %v", err)
	}
	for _, cid := range d.Topo.ClusterIDs() {
		members := d.Topo.Members(cid)
		ref := d.Node(members[0]).View()
		for _, m := range members[1:] {
			v := d.Node(m).View()
			if v.Len() != ref.Len() || v.Head() != ref.Head() {
				t.Fatalf("cluster %s diverged after overload: %s has %d blocks, %s has %d",
					cid, m, v.Len(), members[0], ref.Len())
			}
		}
	}
	for _, n := range d.Nodes() {
		if n.Anomalies() != 0 {
			t.Fatalf("node %s observed %d ledger anomalies", n.ID(), n.Anomalies())
		}
	}
}

// TestGatewayOverloadTCPSheds is the wire-level overload smoke CI runs: a
// short storm against tiny caps over real sockets must shed without crashing
// any replica, and the fleet must audit clean afterwards.
func TestGatewayOverloadTCPSheds(t *testing.T) {
	cfg := tcpConfig(2)
	cfg.Mempool = mempool.Config{MaxBytes: 1 << 10, MaxCount: 4}
	d := startTCP(t, cfg)

	const clients, perClient = 16, 20
	var shed, committed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := d.NewClient()
			c.Timeout = time.Second
			c.MaxAttempts = 1
			for j := 0; j < perClient; j++ {
				ok, _, err := c.Transfer(intraOps(d, types.ClusterID(k%2)))
				if errors.Is(err, ErrOverloaded) {
					shed.Add(1)
				} else if err == nil && ok {
					committed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatalf("no submits shed over TCP (committed=%d)", committed.Load())
	}
	waitConverged(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify after TCP overload: %v", err)
	}
	for _, n := range d.Nodes() {
		if n.Anomalies() != 0 {
			t.Fatalf("node %s observed %d ledger anomalies", n.ID(), n.Anomalies())
		}
	}
	t.Logf("tcp overload: committed=%d shed=%d", committed.Load(), shed.Load())
}

// viewChanges reads a replica's intra-shard view-change counter.
func viewChanges(n *Node) uint64 {
	return n.Metrics().Counter("paxos_view_changes").Load() +
		n.Metrics().Counter("pbft_view_changes").Load()
}

// TestGatewayPrimaryCrashCommitsWithoutRetransmission pins the gateway's
// liveness rule: with the view-0 primary dead, a transaction submitted once
// (no client retransmission) through surviving backup gateways must still
// commit — the gateways time out on what they handed to the dead primary,
// depose it, and offer the transaction to the primary of the new view.
func TestGatewayPrimaryCrashCommitsWithoutRetransmission(t *testing.T) {
	for _, model := range []types.FailureModel{types.CrashOnly, types.Byzantine} {
		t.Run(model.String(), func(t *testing.T) {
			d, err := NewDeployment(Config{
				Model: model, Clusters: 2, F: 1, Seed: 31,
				IntraTimeout: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			d.SeedAccounts(64, 1_000_000)
			d.Start()
			t.Cleanup(d.Stop)

			c := d.NewClient()
			if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
				t.Fatalf("warm-up transfer: %v", err)
			}
			members := d.Topo.Members(0)
			d.CrashNode(members[0]) // the view-0 primary

			// One attempt, through the surviving backups only: member 1 under
			// the crash model, members 1 and 2 (f+1 gateways) under the
			// Byzantine one.
			c.MaxAttempts = 1
			c.Timeout = 15 * time.Second
			c.sendTo[0] = 1
			ok, _, err := c.Transfer(intraOps(d, 0))
			if err != nil {
				t.Fatalf("transfer through a backup gateway after the primary crash: %v", err)
			}
			if !ok {
				t.Fatal("transfer rejected")
			}
			for _, m := range members[1:] {
				if viewChanges(d.Node(m)) == 0 {
					t.Fatalf("replica %s committed without leaving the dead primary's view", m)
				}
			}
			waitQuiesce(t, d)
			if err := d.DAG().Verify(); err != nil {
				t.Fatalf("DAG verify: %v", err)
			}
		})
	}
}

// TestDeposedPrimaryHandsOverAccumulators deposes a live primary that is
// loaded with work: cut off from its backups it fills its pipeline with
// proposals nobody accepts and its accumulator with transactions it cannot
// propose. Once it learns of the new view it must hold nothing back — the
// accumulated and the proposed-but-lost transactions all reach the new
// primary and commit, each exactly once.
func TestDeposedPrimaryHandsOverAccumulators(t *testing.T) {
	const batch, inFlight = 4, 2
	d, err := NewDeployment(Config{
		Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 32,
		BatchSize: batch, MaxInFlight: inFlight, IntraTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	members := d.Topo.Members(0)
	old, backups := members[0], members[1:]
	c := d.NewClient()
	if _, _, err := c.Transfer(intraOps(d, 0)); err != nil {
		t.Fatalf("warm-up transfer: %v", err)
	}
	waitQuiesce(t, d)

	// Cut off, the primary proposes a full pipeline and accumulates a full
	// pump budget behind it.
	d.Faults().Partition([]types.NodeID{old}, backups)
	want := make(map[types.TxID]bool)
	for i := 0; i < 2*batch*inFlight; i++ {
		tx := c.MakeTx(intraOps(d, 0))
		want[tx.ID] = true
		submitTo(c, old, tx)
	}
	pending := d.Node(old).Metrics().Gauge("queue_pending_intra")
	waitFor(t, "the cut-off primary to fill its accumulator", func() bool {
		return pending.Load() == batch*inFlight
	})

	// A transaction through a backup gateway goes unanswered by the cut-off
	// primary; the backups depose it and commit in view 1.
	c2 := d.NewClient()
	tx := c2.MakeTx(intraOps(d, 0))
	submitTo(c2, backups[0], tx)
	if code, _ := awaitVerdict(t, c2, tx.ID, 10*time.Second); code != types.SubmitCommitted {
		t.Fatalf("transfer through a backup: %s", code)
	}
	// Healed, the old primary learns of view 1 from the next proposal.
	d.Faults().HealPartition()
	tx = c2.MakeTx(intraOps(d, 0))
	submitTo(c2, backups[0], tx)
	if code, _ := awaitVerdict(t, c2, tx.ID, 10*time.Second); code != types.SubmitCommitted {
		t.Fatalf("transfer after the heal: %s", code)
	}

	// Every transaction the old primary admitted is answered, by it.
	deadline := time.After(15 * time.Second)
	for len(want) > 0 {
		select {
		case env := <-c.inbox:
			r, err := types.DecodeSubmitReply(env.Payload)
			if env.Type != types.MsgSubmitReply || err != nil || !want[r.TxID] {
				continue
			}
			if r.Code != types.SubmitCommitted || env.From != old {
				t.Fatalf("verdict for %s: %s from %s", r.TxID, r.Code, env.From)
			}
			delete(want, r.TxID)
		case <-deadline:
			t.Fatalf("%d transactions the deposed primary held never committed", len(want))
		}
	}
	waitQuiesce(t, d)
	waitFor(t, "the deposed primary to empty its accumulator", func() bool {
		return pending.Load() == 0
	})
	for _, m := range members {
		seen := make(map[types.TxID]bool)
		for _, b := range d.Node(m).View().Blocks() {
			for _, tx := range b.Txs {
				if seen[tx.ID] {
					t.Fatalf("replica %s ordered %s twice", m, tx.ID)
				}
				seen[tx.ID] = true
			}
		}
	}
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
