package core

import (
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/types"
)

// xharness drives one flattened engine per node as pure state machines,
// under either policy: every node's engine plus a scripted chain status,
// with deterministic FIFO delivery.
type xharness struct {
	tb      testing.TB
	topo    *consensus.Topology
	engines map[types.NodeID]*xengine
	heads   map[types.NodeID]types.Hash
	seqs    map[types.NodeID]uint64
	drained map[types.NodeID]bool
	queue   []xrouted
	decided map[types.NodeID][]crossDecision
	drop    func(to types.NodeID) bool
	now     time.Time
}

type xrouted struct {
	to  types.NodeID
	env *types.Envelope
}

// newXHarnessFor builds the harness over clusters of f = 1 under model, with
// signatures stubbed out under the Byzantine policy.
func newXHarnessFor(tb testing.TB, model types.FailureModel, clusters int) *xharness {
	topo := consensus.UniformTopology(model, clusters, 1)
	h := &xharness{
		tb:      tb,
		topo:    topo,
		engines: make(map[types.NodeID]*xengine),
		heads:   make(map[types.NodeID]types.Hash),
		seqs:    make(map[types.NodeID]uint64),
		drained: make(map[types.NodeID]bool),
		decided: make(map[types.NodeID][]crossDecision),
		now:     time.Unix(10, 0),
	}
	for _, id := range topo.AllNodes() {
		id := id
		cluster, _ := topo.ClusterOf(id)
		h.heads[id] = ledger.GenesisHash()
		h.drained[id] = true
		status := func() chainStatus {
			return chainStatus{Seq: h.seqs[id], Head: h.heads[id], Drained: h.drained[id]}
		}
		validate := func(*types.Transaction) bool { return true }
		h.engines[id] = newXEngine(topo, cluster, id, crypto.NoopSigner{}, crypto.NoopSigner{},
			consensus.NewConflictTable(cluster), status, validate,
			time.Second, 200*time.Millisecond, 4, int64(id))
	}
	return h
}

// engine is id's engine.
func (h *xharness) engine(id types.NodeID) *xengine { return h.engines[id] }

func (h *xharness) sendAll(from types.NodeID, outs []consensus.Outbound) {
	for _, o := range outs {
		for _, to := range o.To {
			if h.drop != nil && h.drop(to) {
				continue
			}
			h.queue = append(h.queue, xrouted{to: to, env: o.Env})
		}
	}
}

func (h *xharness) pump() {
	for len(h.queue) > 0 {
		h.pumpOne()
	}
}

// pumpOne delivers the message at the head of the queue.
func (h *xharness) pumpOne() {
	m := h.queue[0]
	h.queue = h.queue[1:]
	outs, decs := h.engine(m.to).Step(m.env, h.now)
	h.sendAll(m.to, outs)
	for _, d := range decs {
		h.decided[m.to] = append(h.decided[m.to], d)
		h.applyDecision(m.to, d)
	}
}

// applyDecision mimics the runtime: move the node's chain head to the new
// block and notify the engine.
func (h *xharness) applyDecision(id types.NodeID, d crossDecision) {
	block := &types.Block{Txs: d.Txs, Parents: d.Hashes}
	h.heads[id] = block.Hash()
	h.seqs[id]++
	outs, decs := h.engine(id).OnChainAdvanced(h.now)
	h.sendAll(id, outs)
	for _, d2 := range decs {
		h.decided[id] = append(h.decided[id], d2)
		h.applyDecision(id, d2)
	}
}

func (h *xharness) tick(d time.Duration) {
	h.now = h.now.Add(d)
	for _, id := range h.topo.AllNodes() {
		outs, decs := h.engine(id).Tick(h.now)
		h.sendAll(id, outs)
		for _, dd := range decs {
			h.decided[id] = append(h.decided[id], dd)
			h.applyDecision(id, dd)
		}
	}
	h.pump()
}

// xbatch wraps a transaction as a batch-of-1 initiation.
func xbatch(txs ...*types.Transaction) []*types.Transaction { return txs }

// xdecided reports whether the decision's batch contains the transaction.
func xdecided(d crossDecision, id types.TxID) bool {
	for _, tx := range d.Txs {
		if tx.ID == id {
			return true
		}
	}
	return false
}

func xtx(seq uint64, clusters ...types.ClusterID) *types.Transaction {
	return &types.Transaction{
		ID:       types.TxID{Client: types.ClientIDBase + 1, Seq: seq},
		Client:   types.ClientIDBase + 1,
		Ops:      []types.Op{{From: 0, To: 1, Amount: 1}},
		Involved: types.NewClusterSet(clusters...),
	}
}

// alg1 and alg2 build the harness under Algorithm 1 (crash) and Algorithm 2
// (Byzantine). A row whose rule both algorithms share runs its body under
// each, as TestAlg1X and TestAlg2X.
func alg1(tb testing.TB, clusters int) *xharness {
	return newXHarnessFor(tb, types.CrashOnly, clusters)
}

func alg2(tb testing.TB, clusters int) *xharness {
	return newXHarnessFor(tb, types.Byzantine, clusters)
}

func normalCase(t *testing.T, h *xharness) {
	initiator := h.topo.Primary(0, 0)
	tx := xtx(1, 0, 1)
	h.sendAll(initiator, h.engines[initiator].Initiate(xbatch(tx), h.now))
	h.pump()

	// Every node of clusters 0 and 1 decides; cluster 2 decides nothing.
	for _, id := range h.topo.AllNodes() {
		c, _ := h.topo.ClusterOf(id)
		want := 0
		if c == 0 || c == 1 {
			want = 1
		}
		if got := len(h.decided[id]); got != want {
			t.Fatalf("node %s decided %d, want %d", id, got, want)
		}
	}
	// The agreed parent list has one slot per involved cluster and equals
	// genesis on both.
	d := h.decided[initiator][0]
	if len(d.Hashes) != 2 {
		t.Fatalf("hash list has %d slots, want 2", len(d.Hashes))
	}
	for _, hh := range d.Hashes {
		if hh != ledger.GenesisHash() {
			t.Fatalf("agreed parent %s, want genesis", hh)
		}
	}
	if d.Valid&1 == 0 {
		t.Fatal("decision not marked valid")
	}
}

func TestAlg1NormalCase(t *testing.T) { normalCase(t, alg1(t, 3)) }

func TestAlg2NormalCase(t *testing.T) { normalCase(t, alg2(t, 3)) }

func participantLockBlocksSecondProposal(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	p1member := h.topo.Members(1)[1] // a backup of cluster 1

	// T1 {0,1} proposes; deliver only to one cluster-1 backup and hold the
	// rest, so the backup is locked on T1.
	t1 := xtx(1, 0, 1)
	outs := h.engines[p0].Initiate(xbatch(t1), h.now)
	var held []xrouted
	for _, o := range outs {
		for _, to := range o.To {
			if to == p1member {
				h.queue = append(h.queue, xrouted{to: to, env: o.Env})
			} else {
				held = append(held, xrouted{to: to, env: o.Env})
			}
		}
	}
	h.pump()
	if !h.engines[p1member].Locked() {
		t.Fatal("participant did not lock after voting")
	}
	// A conflicting T2 {1,2} proposal arrives at the locked backup: parked.
	p1 := h.topo.Primary(1, 0)
	t2 := xtx(2, 1, 2)
	outs2 := h.engines[p1].Initiate(xbatch(t2), h.now)
	for _, o := range outs2 {
		for _, to := range o.To {
			if to == p1member {
				h.queue = append(h.queue, xrouted{to: to, env: o.Env})
			}
		}
	}
	h.pump()
	if h.engines[p1member].Waiting() != 1 {
		t.Fatalf("conflicting proposal not parked: waiting=%d", h.engines[p1member].Waiting())
	}
	// Release T1's held messages: T1 commits, unlocking the backup, which
	// then grants T2 through the parked proposal.
	h.queue = append(h.queue, held...)
	h.pump()
	if len(h.decided[p1member]) == 0 {
		t.Fatal("T1 never decided at the locked backup")
	}
	if h.engines[p1member].Waiting() != 0 {
		t.Fatal("parked proposal not drained after unlock")
	}
}

func TestAlg1ParticipantLockBlocksSecondProposal(t *testing.T) {
	participantLockBlocksSecondProposal(t, alg1(t, 3))
}

func TestAlg2ParticipantLockBlocksSecondProposal(t *testing.T) {
	participantLockBlocksSecondProposal(t, alg2(t, 3))
}

func withdrawReleasesLocks(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	// Cluster 1 is unreachable: T1 can never gather its quorum.
	h.drop = func(to types.NodeID) bool {
		c, _ := h.topo.ClusterOf(to)
		return c == 1
	}
	t1 := xtx(1, 0, 1)
	h.sendAll(p0, h.engines[p0].Initiate(xbatch(t1), h.now))
	h.pump()
	if !h.engines[p0].Locked() {
		t.Fatal("initiator did not self-lock")
	}
	// Past the retry deadline the initiator withdraws: it unlocks itself and
	// broadcasts the abort to the reachable nodes.
	h.tick(600 * time.Millisecond)
	if h.engines[p0].Locked() {
		t.Fatal("withdraw did not release the initiator's own lock")
	}
	// Cluster-0 backups that had voted are released by the abort.
	for _, id := range h.topo.Members(0)[1:] {
		if h.engines[id].Locked() {
			t.Fatalf("node %s still locked after abort", id)
		}
	}
	if len(h.decided[p0]) != 0 {
		t.Fatal("withdrawn attempt decided")
	}
}

func TestAlg1WithdrawReleasesLocks(t *testing.T) { withdrawReleasesLocks(t, alg1(t, 2)) }

func TestAlg2WithdrawReleasesLocks(t *testing.T) { withdrawReleasesLocks(t, alg2(t, 2)) }

func staleAcceptCannotCommitAfterWithdraw(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	t1 := xtx(1, 0, 1)

	// Capture cluster-1's accepts instead of delivering them.
	var stale []xrouted
	outs := h.engines[p0].Initiate(xbatch(t1), h.now)
	// Deliver proposals; intercept resulting accepts from cluster-1 nodes.
	for _, o := range outs {
		for _, to := range o.To {
			h.queue = append(h.queue, xrouted{to: to, env: o.Env})
		}
	}
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		fromCluster, _ := h.topo.ClusterOf(m.env.From)
		if m.env.Type == types.MsgXAccept && fromCluster == 1 {
			stale = append(stale, m)
			continue
		}
		os, decs := h.engines[m.to].Step(m.env, h.now)
		h.sendAll(m.to, os)
		for _, d := range decs {
			h.decided[m.to] = append(h.decided[m.to], d)
		}
	}
	// The initiator withdraws (the next attempt's view invalidates the old
	// votes)…
	h.tick(600 * time.Millisecond)
	// …then the stale accepts finally arrive: they must not complete a
	// quorum for the withdrawn attempt.
	h.queue = append(h.queue, stale...)
	h.pump()
	for _, id := range h.topo.AllNodes() {
		for _, d := range h.decided[id] {
			if xdecided(d, t1.ID) {
				t.Fatalf("node %s decided a withdrawn attempt from stale votes", id)
			}
		}
	}
}

func TestAlg1StaleAcceptCannotCommitAfterWithdraw(t *testing.T) {
	staleAcceptCannotCommitAfterWithdraw(t, alg1(t, 2))
}

func TestAlg2StaleAcceptCannotCommitAfterWithdraw(t *testing.T) {
	staleAcceptCannotCommitAfterWithdraw(t, alg2(t, 2))
}

func splitVotesTriggerImmediateReproposal(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	// Cluster 1's nodes report as many different chain heads: no quorum can
	// match and the initiator must re-propose without waiting for its timer.
	for i, id := range h.topo.Members(1) {
		h.heads[id] = types.HashBytes([]byte{byte(i), 0xab})
	}
	t1 := xtx(1, 0, 1)
	h.sendAll(p0, h.engines[p0].Initiate(xbatch(t1), h.now))
	h.pump()
	s := h.engines[p0].Stats()
	if s.Decides != 0 {
		t.Fatal("decided despite a split of every head")
	}
	if s.Proposes < 2 {
		t.Fatalf("initiator proposed %d times; split votes should force an immediate retry", s.Proposes)
	}
}

func TestAlg1SplitVotesTriggerImmediateReproposal(t *testing.T) {
	splitVotesTriggerImmediateReproposal(t, alg1(t, 2))
}

func TestAlg2SplitVotesTriggerImmediateReproposal(t *testing.T) {
	splitVotesTriggerImmediateReproposal(t, alg2(t, 2))
}

func invalidVoteGatesExecution(t *testing.T, h *xharness) {
	// Cluster 1's nodes all vote "invalid" for their local part.
	for _, id := range h.topo.Members(1) {
		h.engines[id].validate = func(*types.Transaction) bool { return false }
	}
	p0 := h.topo.Primary(0, 0)
	t1 := xtx(1, 0, 1)
	h.sendAll(p0, h.engines[p0].Initiate(xbatch(t1), h.now))
	h.pump()
	d := h.decided[p0]
	if len(d) != 1 {
		t.Fatalf("initiator decided %d, want 1 (ordered but invalid)", len(d))
	}
	if d[0].Valid != 0 {
		t.Fatal("decision marked valid despite an invalid cluster vote")
	}
}

func TestAlg1InvalidVoteGatesExecution(t *testing.T) { invalidVoteGatesExecution(t, alg1(t, 2)) }

func TestAlg2InvalidVoteGatesExecution(t *testing.T) { invalidVoteGatesExecution(t, alg2(t, 2)) }

func pipelinedSameSetLeads(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	t1, t2 := xtx(1, 0, 1), xtx(2, 0, 1)

	// Two same-set attempts launch back to back: the second's PROPOSE goes
	// out while the first holds the slot votes (its initiator vote defers).
	h.sendAll(p0, h.engines[p0].Initiate(xbatch(t1), h.now))
	if !h.engines[p0].CanInitiate(t2.Involved) {
		t.Fatal("same-set follower refused by the conflict table")
	}
	h.sendAll(p0, h.engines[p0].Initiate(xbatch(t2), h.now))
	if h.engines[p0].table.Leads() != 2 {
		t.Fatalf("leads in flight = %d, want 2", h.engines[p0].table.Leads())
	}
	h.pump()
	// Both decide everywhere, in order, on a consistent chain.
	for _, id := range h.topo.AllNodes() {
		found1, found2 := false, false
		for _, d := range h.decided[id] {
			found1 = found1 || xdecided(d, t1.ID)
			found2 = found2 || xdecided(d, t2.ID)
		}
		if !found1 || !found2 {
			t.Fatalf("node %s decided t1=%v t2=%v, want both", id, found1, found2)
		}
	}
	if h.engines[p0].table.Leads() != 0 {
		t.Fatalf("leads not drained after decide: %d", h.engines[p0].table.Leads())
	}
}

func TestAlg1PipelinedSameSetLeads(t *testing.T) { pipelinedSameSetLeads(t, alg1(t, 2)) }

func TestAlg2PipelinedSameSetLeads(t *testing.T) { pipelinedSameSetLeads(t, alg2(t, 2)) }

func withdrawCascadesToSameSetFollowers(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	// Cluster 1 unreachable: neither attempt can quorum.
	h.drop = func(to types.NodeID) bool {
		c, _ := h.topo.ClusterOf(to)
		return c == 1
	}
	t1, t2 := xtx(1, 0, 1), xtx(2, 0, 1)
	h.sendAll(p0, h.engines[p0].Initiate(xbatch(t1), h.now))
	h.sendAll(p0, h.engines[p0].Initiate(xbatch(t2), h.now))
	h.pump()
	// Past the deadline the stalled attempt withdraws — and takes its
	// same-set follower with it, so no follower keeps remote slot votes
	// while the home slot could go to a foreign attempt.
	h.tick(700 * time.Millisecond)
	for dg, inst := range h.engines[p0].leads {
		if !inst.lead.dormant {
			t.Fatalf("lead %s still live after the withdraw cascade", dg)
		}
	}
	if h.engines[p0].Locked() {
		t.Fatal("initiator still holds a slot vote after withdrawing both")
	}
	for _, id := range h.topo.Members(0)[1:] {
		if h.engines[id].Locked() {
			t.Fatalf("backup %s still locked after the aborts", id)
		}
	}
}

func TestAlg1WithdrawCascadesToSameSetFollowers(t *testing.T) {
	withdrawCascadesToSameSetFollowers(t, alg1(t, 2))
}

func TestAlg2WithdrawCascadesToSameSetFollowers(t *testing.T) {
	withdrawCascadesToSameSetFollowers(t, alg2(t, 2))
}

func deferredSelfVote(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	// The initiator's chain is undrained at launch: the PROPOSE still goes
	// out, but the initiator's own vote waits.
	h.drained[p0] = false
	t1 := xtx(1, 0, 1)
	outs := h.engines[p0].Initiate(xbatch(t1), h.now)
	if len(outs) == 0 {
		t.Fatal("undrained initiator did not multicast the proposal")
	}
	if h.engines[p0].Locked() {
		t.Fatal("initiator voted on an undrained chain")
	}
	if !h.engines[p0].NeedsSlot() {
		t.Fatal("deferred self-vote not reported via NeedsSlot")
	}
	h.sendAll(p0, outs)
	h.pump() // participants vote; the quorum may or may not need the initiator
	// The chain drains; the self-vote is cast on the next chain-advance
	// retry and the attempt completes if it had not already.
	h.drained[p0] = true
	o, decs := h.engines[p0].OnChainAdvanced(h.now)
	h.sendAll(p0, o)
	for _, d := range decs {
		h.decided[p0] = append(h.decided[p0], d)
		h.applyDecision(p0, d)
	}
	h.pump()
	found := false
	for _, d := range h.decided[p0] {
		if xdecided(d, t1.ID) {
			found = true
		}
	}
	if !found {
		t.Fatal("attempt with a deferred self-vote never decided at the initiator")
	}
}

func TestAlg1DeferredSelfVote(t *testing.T) { deferredSelfVote(t, alg1(t, 2)) }

func TestAlg2DeferredSelfVote(t *testing.T) { deferredSelfVote(t, alg2(t, 2)) }

func TestDeferIntraSlotPrecision(t *testing.T) {
	table := consensus.NewConflictTable(0)
	mkEnv := func(seq uint64) *types.Envelope {
		m := &types.ConsensusMsg{View: 0, Seq: seq, Cluster: 0,
			PrevHashes: []types.Hash{ledger.GenesisHash()},
			Txs:        []*types.Transaction{xtx(9, 0)}}
		return &types.Envelope{Type: types.MsgPaxosAccept, From: 1, Payload: m.Encode(nil)}
	}
	// Free table: nothing defers.
	if deferIntra(table, mkEnv(5)) {
		t.Fatal("deferred on a free table")
	}
	table.Acquire(types.HashBytes([]byte{1}), types.NewClusterSet(0, 1), 5,
		ledger.GenesisHash(), time.Unix(100, 0))
	// Slot-precise: only the reserved slot defers.
	if !deferIntra(table, mkEnv(5)) {
		t.Fatal("proposal at the reserved slot not deferred")
	}
	if deferIntra(table, mkEnv(6)) || deferIntra(table, mkEnv(4)) {
		t.Fatal("proposal at a non-reserved slot deferred")
	}
	// View-change machinery defers conservatively while the vote is held.
	vc := &types.Envelope{Type: types.MsgViewChange, From: 1}
	if !deferIntra(table, vc) {
		t.Fatal("view change not deferred while the slot vote is held")
	}
}

func disjointSetsDecideIndependently(t *testing.T, h *xharness) {
	pa := h.topo.Primary(0, 0)
	pc := h.topo.Primary(2, 0)
	// Hold ALL of T1's traffic undelivered while T2 {2,3} runs end to end:
	// T2 must not need anything from clusters 0/1.
	ta := xtx(1, 0, 1)
	outsA := h.engines[pa].Initiate(xbatch(ta), h.now)
	_ = outsA // never delivered
	tb := xtx(2, 2, 3)
	h.sendAll(pc, h.engines[pc].Initiate(xbatch(tb), h.now))
	h.pump()
	for _, id := range h.topo.Members(2) {
		found := false
		for _, d := range h.decided[id] {
			if xdecided(d, tb.ID) {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %s did not decide the disjoint transaction", id)
		}
	}
}

func TestAlg1DisjointSetsDecideIndependently(t *testing.T) {
	disjointSetsDecideIndependently(t, alg1(t, 4))
}

func TestAlg2DisjointSetsDecideIndependently(t *testing.T) {
	disjointSetsDecideIndependently(t, alg2(t, 4))
}

// TestAlg1CommitRetransmissionSchedule retains a run of decided attempts at
// their initiator and ticks it every 5 ms, as a node does. Each COMMIT must go
// out again on the first tick past a quarter of the lock timeout, once more a
// quarter after that, and be retired a quarter later — the schedule a walk
// over every retained commit produced — while a tick that finds the oldest
// deadline still ahead looks at nothing else.
func TestAlg1CommitRetransmissionSchedule(t *testing.T) {
	h := alg1(t, 2)
	p0 := h.topo.Primary(0, 0)
	x := h.engines[p0]
	c := x.pol.(*crash)
	const (
		commits = 32
		spacing = 7 * time.Millisecond
		tick    = 5 * time.Millisecond
		quarter = time.Second / 4 // the harness's lock timeout is one second
	)
	start := h.now
	retained := make(map[types.Hash]time.Time)
	for i := 0; i < commits; i++ {
		batch := xbatch(xtx(uint64(i+1), 0, 1))
		h.sendAll(p0, x.Initiate(batch, h.now))
		h.pump()
		retained[types.BatchDigest(batch)] = h.now
		h.now = h.now.Add(spacing)
	}
	if len(c.recent) != commits || len(c.recentDue) != commits {
		t.Fatalf("retained %d commits (%d queued), want %d", len(c.recent), len(c.recentDue), commits)
	}

	// Nothing is due yet. Were the tick to look past the head it would find
	// these deadlines, which the test moves into the past, and resend.
	for _, r := range c.recentDue[1:] {
		r.deadline = r.deadline.Add(-time.Hour)
	}
	if outs, _ := x.Tick(h.now); len(outs) != 0 {
		t.Fatalf("tick with the head not due sent %d messages", len(outs))
	}
	for _, r := range c.recentDue[1:] {
		r.deadline = r.deadline.Add(time.Hour)
	}

	resent := make(map[types.Hash][]time.Time)
	for now := h.now; now.Before(start.Add(commits*spacing + 4*quarter)); now = now.Add(tick) {
		outs, _ := x.Tick(now)
		for _, o := range outs {
			if o.Env.Type != types.MsgXCommit {
				t.Fatalf("tick sent a %v", o.Env.Type)
			}
			m, err := types.DecodeConsensusMsg(o.Env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			resent[m.Digest] = append(resent[m.Digest], now)
		}
	}
	firstTickAfter := func(at time.Time) time.Time {
		return h.now.Add((at.Sub(h.now)/tick + 1) * tick)
	}
	for digest, at := range retained {
		first := firstTickAfter(at.Add(quarter))
		want := []time.Time{first, firstTickAfter(first.Add(quarter))}
		got := resent[digest]
		if len(got) != maxCommitResends || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
			t.Fatalf("commit retained at +%v resent at %v, want %v", at.Sub(start), got, want)
		}
	}
	if len(c.recent) != 0 || len(c.recentDue) != 0 {
		t.Fatalf("%d commits (%d queued) still retained after their schedule ran out", len(c.recent), len(c.recentDue))
	}
}

// staleSelfVote scripts the race behind three of seven traced withdrawals:
// cluster 1's primary self-votes its own fresh lead A for chain slot 1, but
// a foreign PROPOSE B reaches its backups first and they vote B for that
// slot. B commits into it; the initiator's vote for A now names a head that
// is gone. Afterwards one backup fewer than a quorum needs votes A at the new
// head (here the last one never hears of A), so A is decided without waiting
// for a timer only if the initiator votes again at the new head.
func staleSelfVote(t *testing.T, h *xharness) {
	p0, p1 := h.topo.Primary(0, 0), h.topo.Primary(1, 0)
	members := h.topo.Members(1)
	deaf := members[len(members)-1]
	a, b := xtx(1, 1, 2), xtx(2, 0, 1)

	outsA := h.engine(p1).Initiate(xbatch(a), h.now) // self-vote at slot 1
	if !h.engine(p1).Locked() {
		t.Fatal("initiator did not self-vote its fresh lead")
	}
	h.sendAll(p0, h.engine(p0).Initiate(xbatch(b), h.now)) // B's PROPOSE is delivered first
	h.drop = func(to types.NodeID) bool { return to == deaf }
	h.sendAll(p1, outsA)
	h.drop = nil
	h.pump()

	if len(h.decided[p1]) == 0 || !xdecided(h.decided[p1][0], b.ID) {
		t.Fatal("foreign attempt did not commit into the slot the initiator had promised its lead")
	}
	took := h.decided[p1][0]
	for _, d := range h.decided[p1][1:] {
		if xdecided(d, a.ID) {
			if want := (&types.Block{Txs: took.Txs, Parents: took.Hashes}).Hash(); d.Hashes[0] != want {
				t.Fatalf("lead decided on parent %s, want the block that took its slot, %s", d.Hashes[0], want)
			}
			return
		}
	}
	t.Fatal("lead whose self-vote went stale is one vote short until its retry timer")
}

func TestAlg1StaleSelfVoteIsRecast(t *testing.T) { staleSelfVote(t, alg1(t, 3)) }

func TestAlg2StaleSelfVoteIsRecast(t *testing.T) { staleSelfVote(t, alg2(t, 3)) }

// TestAlg1DecidedSelfVoteTakesItsSlot: an initiator whose lead A decides
// inside OnChainAdvanced (the re-cast self-vote completes a quorum its
// backups' accepts had already filled) has spent the next chain slot on A,
// although A's block is not appended until the call returns. A foreign
// proposal C parked behind A must not be voted on in that same call: the
// head the vote would name is the one A is about to extend, a second vote at
// one slot, and a lagging backup's honest vote for C at that head then
// commits C beside A (found as "cross-shard tx missing from involved
// cluster" in the multi-process test: one cluster committed C's block, the
// other could never chain it).
func TestAlg1DecidedSelfVoteTakesItsSlot(t *testing.T) {
	h := alg1(t, 3)
	p0, p1 := h.topo.Primary(0, 0), h.topo.Primary(1, 0)
	lagging := h.topo.Members(1)[2]
	a, b, c := xtx(1, 1, 2), xtx(2, 0, 1), xtx(3, 0, 1)

	outsA := h.engine(p1).Initiate(xbatch(a), h.now) // self-vote at slot 1
	h.sendAll(p0, h.engine(p0).Initiate(xbatch(b), h.now))
	h.drop = func(to types.NodeID) bool { return to == lagging } // never hears of A
	h.sendAll(p1, outsA)
	h.drop = nil
	h.sendAll(p0, h.engine(p0).Initiate(xbatch(c), h.now)) // same set as B: queues behind it

	// B takes slot 1 of cluster 1. Its COMMIT reaches p1 last, after the
	// other backup has already voted A at the new head.
	var late []xrouted
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		if m.to == p1 && m.env.Type == types.MsgXCommit {
			late = append(late, m)
			continue
		}
		h.queue = append([]xrouted{m}, h.queue...)
		h.pumpOne()
	}
	h.queue = late
	h.pump()

	parentIn := func(tx *types.Transaction) (types.Hash, bool) {
		for _, id := range h.topo.AllNodes() {
			for _, d := range h.decided[id] {
				if xdecided(d, tx.ID) {
					for i, cl := range d.Involved() {
						if cl == 1 {
							return d.Hashes[i], true
						}
					}
				}
			}
		}
		return types.Hash{}, false
	}
	pa, okA := parentIn(a)
	if !okA {
		t.Fatal("lead A did not decide")
	}
	if pc, okC := parentIn(c); okC && pc == pa {
		t.Fatalf("A and C both decided on cluster 1's block %s: two blocks at one chain slot", pa)
	}
}

// TestAlg2DecidedSelfVoteTakesItsSlot is the same rule under Algorithm 2,
// where a decision needs the commit phase too. p1 leads A with its chain
// undrained, so its own accept waits; C's PROPOSE parks behind it. Every
// other node of A's clusters accepts and commits, and only one commit to p1
// is withheld, so p1's own accept, cast when its chain drains, completes
// both of A's quorums inside OnChainAdvanced. That call must not go on to
// accept C at the head A is about to extend.
func TestAlg2DecidedSelfVoteTakesItsSlot(t *testing.T) {
	h := alg2(t, 3)
	p0, p1 := h.topo.Primary(0, 0), h.topo.Primary(1, 0)
	withheld := h.topo.Members(1)[3]
	a, c := xtx(1, 1, 2), xtx(2, 0, 1)
	cDigest := types.BatchDigest(xbatch(c))

	h.drained[p1] = false
	h.sendAll(p1, h.engine(p1).Initiate(xbatch(a), h.now))
	for _, o := range h.engine(p0).Initiate(xbatch(c), h.now) {
		if o.Env.Type == types.MsgXPropose {
			h.queue = append(h.queue, xrouted{to: p1, env: o.Env}) // the rest of C's traffic is lost
		}
	}
	for len(h.queue) > 0 {
		if m := h.queue[0]; m.to == p1 && m.env.From == withheld && m.env.Type == types.MsgXCommit {
			h.queue = h.queue[1:]
			continue
		}
		h.pumpOne()
	}
	if h.engine(p1).Waiting() != 1 || len(h.decided[p1]) != 0 {
		t.Fatalf("p1 parked %d proposals and decided %d, want C parked and A undecided",
			h.engine(p1).Waiting(), len(h.decided[p1]))
	}

	h.drained[p1] = true
	outs, decs := h.engine(p1).OnChainAdvanced(h.now)
	if len(decs) != 1 || !xdecided(decs[0], a.ID) {
		t.Fatalf("p1's own accept decided %d batches, want A", len(decs))
	}
	acceptsC := func(outs []consensus.Outbound) (types.Hash, bool) {
		for _, o := range outs {
			if m, err := types.DecodeConsensusMsg(o.Env.Payload); err == nil &&
				o.Env.Type == types.MsgXAccept && m.Digest == cDigest {
				return m.PrevHashes[0], true
			}
		}
		return types.Hash{}, false
	}
	if head, ok := acceptsC(outs); ok {
		t.Fatalf("p1 accepted C at head %s, the slot A took, in the call that decided A", head)
	}
	// Once A's block lands, C is voted on at the new head.
	h.applyDecision(p1, decs[0])
	var queued []consensus.Outbound
	for _, m := range h.queue {
		queued = append(queued, consensus.Outbound{Env: m.env})
	}
	if head, ok := acceptsC(queued); !ok || head != h.heads[p1] {
		t.Fatalf("after A's block, p1 accepted C at %s (sent %v), want the new head %s", head, ok, h.heads[p1])
	}
}

// leadingSpansWithdrawal: a transaction counts as led from Initiate until its
// attempt decides — through a withdrawal and the back-off after it, which
// outlast both a client's retransmission timer and the node's inFlight
// screen. Admitting the retransmission then would commit it twice.
func leadingSpansWithdrawal(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	a := xtx(1, 0, 1)
	h.drop = func(to types.NodeID) bool { c, _ := h.topo.ClusterOf(to); return c == 1 } // cluster 1 hears nothing
	h.sendAll(p0, h.engine(p0).Initiate(xbatch(a), h.now))
	h.pump()
	if !h.engine(p0).Leading(a.ID) {
		t.Fatal("in-flight lead not reported")
	}
	h.tick(600 * time.Millisecond) // past the 200–400 ms attempt timer: withdrawn, backing off
	if h.engine(p0).Locked() {
		t.Fatal("attempt was not withdrawn")
	}
	if !h.engine(p0).Leading(a.ID) {
		t.Fatal("withdrawn lead no longer reported while it backs off")
	}
	h.drop = nil
	for i := 0; i < 4 && len(h.decided[p0]) == 0; i++ {
		h.tick(600 * time.Millisecond) // re-proposed, heard, decided
	}
	if len(h.decided[p0]) != 1 || h.engine(p0).Leading(a.ID) || h.engine(p0).Leading(xtx(2, 0, 1).ID) {
		t.Fatalf("after %d decisions Leading(a)=%v", len(h.decided[p0]), h.engine(p0).Leading(a.ID))
	}
}

func TestAlg1LeadingSpansWithdrawal(t *testing.T) { leadingSpansWithdrawal(t, alg1(t, 2)) }

func TestAlg2LeadingSpansWithdrawal(t *testing.T) { leadingSpansWithdrawal(t, alg2(t, 2)) }

// perDigestStateIsBounded: a decided batch, one whose initiator withdraws it
// until it gives up, and accepts and commits for digests nobody proposed
// leave nothing behind once the lock timeout has passed — neither undecided
// instances, nor parked proposals, nor the record of old decisions, nor
// retained commits.
func perDigestStateIsBounded(t *testing.T, h *xharness) {
	p0 := h.topo.Primary(0, 0)
	h.sendAll(p0, h.engine(p0).Initiate(xbatch(xtx(1, 0, 1)), h.now))
	h.pump()
	if len(h.decided[p0]) != 1 {
		t.Fatal("the first batch did not decide")
	}

	h.drop = func(to types.NodeID) bool { c, _ := h.topo.ClusterOf(to); return c == 1 }
	h.sendAll(p0, h.engine(p0).Initiate(xbatch(xtx(2, 0, 1)), h.now))
	h.pump()
	for i := 0; i < 400 && len(h.engine(p0).leads) > 0; i++ {
		h.tick(time.Second)
	}
	h.drop = nil
	if s := h.engine(p0).Stats(); len(h.engine(p0).leads) > 0 || s.Proposes != maxCrossAttempts+1 {
		t.Fatalf("initiator still leads %d batches after %d proposals", len(h.engine(p0).leads), s.Proposes)
	}

	forger := h.topo.Members(1)[1]
	for i := 0; i < 100; i++ {
		m := &types.ConsensusMsg{View: 1, Digest: types.HashBytes([]byte{byte(i)}), Cluster: 1,
			PrevHashes: []types.Hash{ledger.GenesisHash()}}
		for _, typ := range []types.MsgType{types.MsgXAccept, types.MsgXCommit} {
			env := &types.Envelope{Type: typ, From: forger, Payload: m.Encode(nil)}
			for _, to := range h.topo.Members(0) {
				h.queue = append(h.queue, xrouted{to: to, env: env})
			}
		}
	}
	h.pump()
	h.tick(time.Second + time.Millisecond)

	for _, id := range h.topo.AllNodes() {
		x := h.engine(id)
		if x.Pending() != 0 || len(x.leads) != 0 || len(x.waiting) != 0 || len(x.decided) != 0 {
			t.Errorf("node %s keeps %d instances, %d leads, %d parked proposals and %d decisions",
				id, x.Pending(), len(x.leads), len(x.waiting), len(x.decided))
		}
		if c, ok := x.pol.(*crash); ok && len(c.recent)+len(c.recentDue) != 0 {
			t.Errorf("node %s retains %d commits", id, len(c.recent))
		}
	}
}

func TestAlg1PerDigestStateIsBounded(t *testing.T) { perDigestStateIsBounded(t, alg1(t, 2)) }

func TestAlg2PerDigestStateIsBounded(t *testing.T) { perDigestStateIsBounded(t, alg2(t, 2)) }

// byzAbort is an ABORT for the batch from a node, as any member could sign it.
func byzAbort(from types.NodeID, batch []*types.Transaction) *types.Envelope {
	m := &types.ConsensusMsg{View: 1, Digest: types.BatchDigest(batch), Cluster: 0}
	return &types.Envelope{Type: types.MsgXAbort, From: from, Payload: m.Encode(nil)}
}

// TestAlg2AbortFromNonProposerIsIgnored: under Algorithm 2 only the attempt's
// proposer may release a vote with an ABORT; another member of an involved
// cluster cannot.
func TestAlg2AbortFromNonProposerIsIgnored(t *testing.T) {
	h := alg2(t, 2)
	p0, backup := h.topo.Primary(0, 0), h.topo.Members(1)[1]
	batch := xbatch(xtx(1, 0, 1))
	for _, o := range h.engine(p0).Initiate(batch, h.now) {
		if o.Env.Type == types.MsgXPropose {
			h.engine(backup).Step(o.Env, h.now)
		}
	}
	if !h.engine(backup).Locked() {
		t.Fatal("backup did not vote")
	}
	h.engine(backup).Step(byzAbort(h.topo.Members(1)[2], batch), h.now)
	if !h.engine(backup).Locked() {
		t.Fatal("an ABORT from a node that did not propose released the vote")
	}
	h.engine(backup).Step(byzAbort(p0, batch), h.now)
	if h.engine(backup).Locked() {
		t.Fatal("the proposer's ABORT did not release the vote")
	}
}

// byzPinned runs a batch to its decision everywhere except one backup of
// cluster 1, which hears every message but the other nodes' COMMITs: it has
// sent its own COMMIT, so it is pinned to the hash list, and holds its vote.
func byzPinned(t *testing.T, h *xharness) (types.NodeID, []*types.Transaction) {
	p0, backup := h.topo.Primary(0, 0), h.topo.Members(1)[1]
	batch := xbatch(xtx(1, 0, 1))
	h.sendAll(p0, h.engine(p0).Initiate(batch, h.now))
	for len(h.queue) > 0 {
		if m := h.queue[0]; m.to == backup && m.env.Type == types.MsgXCommit {
			h.queue = h.queue[1:]
			continue
		}
		h.pumpOne()
	}
	inst := h.engine(backup).insts[types.BatchDigest(batch)]
	if len(h.decided[backup]) != 0 || inst == nil || inst.pinned == nil || !h.engine(backup).Locked() {
		t.Fatal("backup did not commit and wait for the others' commits")
	}
	return backup, batch
}

// TestAlg2AbortAfterCommitDoesNotRelease: a node that has sent its COMMIT
// keeps its vote through the proposer's ABORT — its cluster may be pinned by
// a decision already in flight.
func TestAlg2AbortAfterCommitDoesNotRelease(t *testing.T) {
	h := alg2(t, 2)
	backup, batch := byzPinned(t, h)
	h.engine(backup).Step(byzAbort(h.topo.Primary(0, 0), batch), h.now)
	if !h.engine(backup).Locked() {
		t.Fatal("an ABORT after this node's COMMIT released its vote")
	}
}

// TestAlg2DeadPinnedCommitIsReleased: once the chain head a pinned commit
// names for this node's cluster has moved on, no correct node of the cluster
// can endorse that hash list again, and the node lets the vote go.
func TestAlg2DeadPinnedCommitIsReleased(t *testing.T) {
	h := alg2(t, 2)
	backup, batch := byzPinned(t, h)
	h.heads[backup], h.seqs[backup] = types.HashBytes([]byte("another block")), 1
	h.engine(backup).Tick(h.now)
	if inst := h.engine(backup).insts[types.BatchDigest(batch)]; h.engine(backup).Locked() || inst.pinned != nil {
		t.Fatal("a commit pinned to a head that moved was kept")
	}
}

// FuzzCrossStep steps one arbitrary payload, under each cross-shard message
// type and twice (a duplicate is one voice, not two), into a primary and a
// backup of a two-cluster deployment, under both policies; the sender is a
// member of an involved cluster. Nothing may panic. Under Algorithm 2 one
// sender's messages never decide anything, and a tick past the lock timeout
// leaves the targets with no per-digest state. (Under Algorithm 1 a COMMIT is
// the initiator's word and decides.)
func FuzzCrossStep(f *testing.F) {
	kinds := []types.MsgType{types.MsgXPropose, types.MsgXAccept, types.MsgXCommit, types.MsgXAbort}
	batch := xbatch(xtx(1, 0, 1))
	digest, g := types.BatchDigest(batch), ledger.GenesisHash()
	for _, m := range []*types.ConsensusMsg{
		{View: 1, Digest: digest, Cluster: 1, PrevHashes: []types.Hash{g}, Txs: batch},
		{View: 1, Digest: digest, Cluster: 1, PrevHashes: []types.Hash{g}, Seq: 1},
		{View: 1, Digest: digest, Cluster: 1, PrevHashes: []types.Hash{g, g}, Txs: batch, Seq: 1},
		{View: 2, Digest: digest, Cluster: 1},
	} {
		for k := range kinds {
			f.Add(uint8(k), m.Encode(nil))
		}
	}
	f.Add(uint8(0), []byte(nil))

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		for _, model := range []types.FailureModel{types.CrashOnly, types.Byzantine} {
			h := newXHarnessFor(t, model, 2)
			env := &types.Envelope{Type: kinds[int(kind)%len(kinds)], From: h.topo.Members(1)[2], Payload: payload}
			for _, to := range []types.NodeID{h.topo.Primary(0, 0), h.topo.Members(1)[1]} {
				x := h.engine(to)
				for i := 0; i < 2; i++ {
					if _, decs := x.Step(env, h.now); len(decs) > 0 && model == types.Byzantine {
						t.Fatalf("one %v from node %s decided at node %s", env.Type, env.From, to)
					}
				}
				x.Tick(h.now.Add(time.Second + time.Millisecond))
				if model == types.Byzantine && x.Pending() != 0 {
					t.Fatalf("node %s keeps %d instances past the lock timeout", to, x.Pending())
				}
			}
		}
	})
}

// TestLaunchDropsCommittedRequests: a request that reached the chain while
// its duplicate waited in the cross-shard queue is not launched again.
func TestLaunchDropsCommittedRequests(t *testing.T) {
	d := newTestDeployment(t, types.CrashOnly, 2)
	if _, _, err := d.NewClient().Transfer(crossOps(d, 0, 1)); err != nil {
		t.Fatal(err)
	}
	n := d.Node(d.Topo.Primary(0, 0))
	blocks := n.View().CrossShardBlocks()
	if len(blocks) != 1 {
		t.Fatalf("%d cross-shard blocks on the initiator's chain, want 1", len(blocks))
	}
	fresh := xtx(99, 0, 1)
	got := n.dropCommitted([]*types.Transaction{blocks[0].Txs[0], fresh})
	if len(got) != 1 || got[0] != fresh {
		t.Fatalf("launching batch kept %d of [committed, fresh], want only the fresh one", len(got))
	}
}
