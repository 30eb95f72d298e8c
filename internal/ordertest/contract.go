package ordertest

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/ledger"
	"sharper/internal/obs"
	"sharper/internal/ordering"
	"sharper/internal/types"
)

// Row is one behaviour every policy must show.
type Row struct {
	Name string
	Run  func(t *testing.T, p Policy)
}

// Contract is the behaviour the ordering engine owes its callers whichever
// policy votes. Rows build their own cluster; a row that needs a phase by
// name takes it from the Policy.
var Contract = []Row{
	{"normal case", normalCase},
	{"batched", batched},
	{"pipelined", pipelined},
	{"f silent members", silentMembers},
	{"view change carries a prepared value over", viewChangeCarriesValue},
	{"suspect primary", suspectPrimary},
	{"sync chain head orphans the dead pipeline", syncOrphans},
	{"sync chain head relinks what still chains", syncRelinks},
	{"stale sync chain head is a no-op", staleSync},
	{"stale proposal", staleProposal},
	{"non-primary proposal", nonPrimaryProposal},
	{"proposal without parent", proposalWithoutParent},
	{"out of order parks and recovers", outOfOrder},
	{"commit before proposal", commitBeforeProposal},
	{"restore re-occupies its slots", restoreOccupiesSlots},
	{"reserved slot parks until released", reservedSlotParks},
	{"straggler does not resurrect a delivered slot", stragglerDropped},
	{"unpersistable acceptance withholds the vote", unpersistableWithholdsVote},
}

// RunRow runs one row of the contract by name.
func RunRow(t *testing.T, p Policy, name string) {
	t.Helper()
	for _, r := range Contract {
		if r.Name == name {
			r.Run(t, p)
			return
		}
	}
	t.Fatalf("ordertest: no contract row %q", name)
}

// wantDecided asserts the nodes decided exactly these transactions (first of
// each block), in this order.
func wantDecided(t *testing.T, h *Harness, nodes []types.NodeID, want ...uint64) {
	t.Helper()
	for _, id := range nodes {
		if got := h.DecidedSeqs(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %s decided %v, want %v", id, got, want)
		}
	}
}

func normalCase(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	h.Propose(Tx(1))
	h.Propose(Tx(2))
	wantDecided(t, h, h.Members(), 1, 2)
	for id, decs := range h.Decided {
		if decs[0].Seq != 1 || decs[1].Seq != 2 {
			t.Fatalf("node %s decided slots %d,%d, want 1,2", id, decs[0].Seq, decs[1].Seq)
		}
	}
	_, head := h.Primary().ProposedHead()
	for id, e := range h.Engines {
		if _, got := e.ProposedHead(); got != head {
			t.Fatalf("node %s head diverges", id)
		}
		if e.HasUncommitted() {
			t.Fatalf("node %s reports an uncommitted slot on a drained chain", id)
		}
	}
}

// batched: a multi-transaction batch commits through one instance as one
// block, in proposal order, at every node.
func batched(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	h.Propose(Tx(1), Tx(2), Tx(3), Tx(4))
	for _, id := range h.Members() {
		decs := h.Decided[id]
		if len(decs) != 1 || len(decs[0].Block.Txs) != 4 {
			t.Fatalf("node %s decided %d instances, want one block of 4", id, len(decs))
		}
		for i, tx := range decs[0].Block.Txs {
			if tx.ID.Seq != uint64(i+1) {
				t.Fatalf("node %s batch order broken at %d", id, i)
			}
		}
	}
}

func pipelined(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	primary := h.Members()[0]
	for i := uint64(1); i <= 3; i++ {
		if seq := h.Launch(primary, Tx(i)); seq != i {
			t.Fatalf("assigned seq %d, want %d", seq, i)
		}
	}
	h.Pump()
	wantDecided(t, h, h.Members(), 1, 2, 3)
}

func silentMembers(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	silent := h.Members()[len(h.Members())-p.F:]
	h.Drop = func(to types.NodeID, _ *types.Envelope) bool {
		for _, s := range silent {
			if to == s {
				return true
			}
		}
		return false
	}
	h.Propose(Tx(1))
	wantDecided(t, h, h.Live(silent...), 1)
}

// viewChangeCarriesValue: the primary fails with a proposal voted for but
// not committed anywhere. The backups' timers depose it, the new primary
// recovers the value from the view-change votes, re-binds it to the same
// slot, and only then takes new work.
func viewChangeCarriesValue(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	old := h.Members()[0]
	h.Propose(Tx(1))
	// The old primary hears nothing any more, and no commit-phase message
	// gets through: under either policy tx 2 ends up voted for at every
	// backup, decided at none.
	h.Drop = func(to types.NodeID, env *types.Envelope) bool { return to == old || env.Type == p.Commit }
	h.Launch(old, Tx(2))
	h.Pump()
	live := h.Live(old)
	wantDecided(t, h, live, 1)
	for _, id := range live {
		if !h.Engines[id].HasUncommitted() {
			t.Fatalf("node %s does not hold tx 2 uncommitted", id)
		}
	}
	h.Drop = func(to types.NodeID, _ *types.Envelope) bool { return to == old }
	h.Tick(200 * time.Millisecond)
	h.Tick(200 * time.Millisecond)
	for _, id := range live {
		if v := h.Engines[id].View(); v != 1 {
			t.Fatalf("node %s in view %d, want 1", id, v)
		}
	}
	wantDecided(t, h, live, 1, 2)
	if h.Topo.Primary(0, 1) == old {
		t.Fatal("rotation returned the crashed primary")
	}
	h.Launch(h.Topo.Primary(0, 1), Tx(3))
	h.Pump()
	wantDecided(t, h, live, 1, 2, 3)
	for _, id := range live {
		if got := h.Decided[id][1].Seq; got != 2 {
			t.Fatalf("node %s decided the carried value at slot %d, want 2", id, got)
		}
	}
}

// suspectPrimary: a primary that fails holding no proposal is deposed by
// the request timer (SuspectPrimary), and the next primary makes progress.
func suspectPrimary(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	old := h.Members()[0]
	h.Propose(Tx(1))
	if outs := h.Engines[old].SuspectPrimary(h.Now); len(outs) != 0 {
		t.Fatal("the primary suspected itself")
	}
	h.Drop = func(to types.NodeID, _ *types.Envelope) bool { return to == old }
	live := h.Live(old)
	for _, id := range live {
		outs := h.Engines[id].SuspectPrimary(h.Now)
		if id == live[0] && len(outs) == 0 {
			t.Fatal("suspicion produced no view-change message")
		}
		h.Send(id, outs)
	}
	h.Pump()
	for _, id := range live {
		if v := h.Engines[id].View(); v != 1 {
			t.Fatalf("node %s in view %d, want 1", id, v)
		}
	}
	h.Launch(h.Topo.Primary(0, 1), Tx(3))
	h.Pump()
	wantDecided(t, h, live, 1, 3)
}

// syncOrphans: an externally decided (cross-shard) block takes a slot the
// primary had pipelined into; the pipeline above it is dead, its
// transactions are handed back, and the next proposal chains to the block.
func syncOrphans(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	h.Propose(Tx(1))
	primary := h.Primary()
	primary.Propose([]*types.Transaction{Tx(2)}, h.Now)
	primary.Propose([]*types.Transaction{Tx(3)}, h.Now)
	external := types.HashBytes([]byte("cross-block"))
	_, _, orphans := primary.SyncChainHead(2, external, h.Now)
	if len(orphans) != 2 || orphans[0].ID.Seq+orphans[1].ID.Seq != 5 {
		t.Fatalf("orphans = %v, want txs 2 and 3 (the dead pipeline)", orphans)
	}
	if seq, head := primary.ProposedHead(); seq != 2 || head != external {
		t.Fatalf("pipeline not reset: seq=%d", seq)
	}
	if _, seq := primary.Propose([]*types.Transaction{Tx(4)}, h.Now); seq != 3 {
		t.Fatalf("next proposal at seq %d, want 3", seq)
	}
}

// syncRelinks: a node that voted for slots 1 and 2 but missed both commits
// learns block 1 from chain sync. Its vote at slot 2 chains onto that block
// and must survive — the cluster may have counted it.
func syncRelinks(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	h.Drop = func(_ types.NodeID, env *types.Envelope) bool { return env.Type == p.Commit }
	primary := h.Members()[0]
	h.Launch(primary, Tx(1))
	h.Launch(primary, Tx(2))
	h.Pump()
	backup := h.Engines[h.Members()[1]]
	block1 := &types.Block{Txs: []*types.Transaction{Tx(1)}, Parents: []types.Hash{ledger.GenesisHash()}}
	block2 := &types.Block{Txs: []*types.Transaction{Tx(2)}, Parents: []types.Hash{block1.Hash()}}
	_, decs, orphans := backup.SyncChainHead(1, block1.Hash(), h.Now)
	if len(decs) != 0 || len(orphans) != 0 {
		t.Fatalf("sync surfaced %d decisions and %d orphans at a backup", len(decs), len(orphans))
	}
	if seq, head := backup.ProposedHead(); seq != 2 || head != block2.Hash() {
		t.Fatalf("proposal chain at seq %d after relink, want 2 (the surviving vote)", seq)
	}
	if !backup.HasUncommitted() {
		t.Fatal("the surviving vote at slot 2 is not reported uncommitted")
	}
}

func staleSync(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	h.Propose(Tx(1))
	h.Propose(Tx(2))
	e := h.Primary()
	seq, head := e.ProposedHead()
	outs, decs, orphans := e.SyncChainHead(1, types.HashBytes([]byte("behind")), h.Now)
	if len(outs)+len(decs)+len(orphans) != 0 {
		t.Fatal("a stale chain head produced output")
	}
	if s, hd := e.ProposedHead(); s != seq || hd != head {
		t.Fatalf("a stale chain head rewound the proposal chain to %d", s)
	}
	h.Propose(Tx(3))
	wantDecided(t, h, h.Members(), 1, 2, 3)
}

func staleProposal(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	backup := h.Members()[1]
	m := ProposalMsg(0, 1, types.HashBytes([]byte("bogus")), Tx(9))
	outs, decs := h.Deliver(backup, h.Envelope(p.Proposal, h.Members()[0], m))
	if len(outs) != 0 || len(decs) != 0 {
		t.Fatal("backup voted for a proposal that does not extend its chain")
	}
}

func nonPrimaryProposal(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	m := ProposalMsg(0, 1, ledger.GenesisHash(), Tx(9))
	outs, _ := h.Deliver(h.Members()[1], h.Envelope(p.Proposal, h.Members()[2], m))
	if len(outs) != 0 {
		t.Fatal("proposal from a non-primary was answered")
	}
}

// proposalWithoutParent: a proposal carrying no parent hash (or several) is
// malformed — an intra-shard block extends exactly one chain — and is
// dropped before anything indexes the list.
func proposalWithoutParent(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	for _, parents := range [][]types.Hash{nil, {ledger.GenesisHash(), ledger.GenesisHash()}} {
		m := ProposalMsg(0, 1, ledger.GenesisHash(), Tx(1))
		m.PrevHashes = parents
		outs, decs := h.Deliver(h.Members()[1], h.Envelope(p.Proposal, h.Members()[0], m))
		if len(outs) != 0 || len(decs) != 0 {
			t.Fatalf("proposal with %d parents was answered", len(parents))
		}
	}
	h.Propose(Tx(1))
	wantDecided(t, h, h.Members(), 1)
}

func outOfOrder(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	primary, backup := h.Members()[0], h.Members()[1]
	h.Launch(primary, Tx(1))
	h.Launch(primary, Tx(2))
	held := h.Held(backup)
	// The backup sees proposal 2 before proposal 1.
	var first, second *types.Envelope
	for _, env := range held {
		if env.Type != p.Proposal {
			continue
		}
		if first == nil {
			first = env
		} else {
			second = env
		}
	}
	if outs, _ := h.Deliver(backup, second); len(outs) != 0 {
		t.Fatal("backup voted for a proposal ahead of its chain")
	}
	h.Deliver(backup, first)
	if seq, _ := h.Engines[backup].ProposedHead(); seq != 2 {
		t.Fatalf("backup proposedSeq %d, want 2 (parked proposal replayed)", seq)
	}
	for _, env := range held {
		if env.Type != p.Proposal {
			h.Deliver(backup, env)
		}
	}
	h.Pump()
	wantDecided(t, h, h.Members(), 1, 2)
}

// commitBeforeProposal: the network hands one backup the commit phase ahead
// of the proposal. It must not decide without the body, and must decide the
// moment the body arrives.
func commitBeforeProposal(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	backup := h.Members()[1]
	var held []*types.Envelope
	h.Drop = func(to types.NodeID, env *types.Envelope) bool {
		if to == backup {
			held = append(held, env)
		}
		return to == backup
	}
	h.Propose(Tx(1))
	wantDecided(t, h, h.Live(backup), 1)
	h.Drop = nil
	for _, env := range held {
		if env.Type == p.Commit {
			h.Deliver(backup, env)
		}
	}
	if len(h.Decided[backup]) != 0 {
		t.Fatal("decided without the transaction body")
	}
	if !h.Engines[backup].HasUncommitted() {
		t.Fatal("a slot known committed is not reported while its body is missing")
	}
	// The node's scheduler asks on every pass; the answer is a field read.
	if n := testing.AllocsPerRun(10, func() { h.Engines[backup].HasUncommitted() }); n != 0 {
		t.Fatalf("HasUncommitted allocates %.0f times per call over a bodyless instance", n)
	}
	for _, env := range held {
		if env.Type == p.Proposal {
			if _, decs := h.Deliver(backup, env); len(decs) != 1 {
				t.Fatalf("the body's arrival surfaced %d decisions, want 1", len(decs))
			}
		}
	}
	wantDecided(t, h, []types.NodeID{backup}, 1)
}

// restoreOccupiesSlots: a restarted primary recovers an acceptance at slot 1
// from its log. The slot is taken: its next proposal goes to slot 2, chained
// onto the recovered block.
func restoreOccupiesSlots(t *testing.T, p Policy) {
	h := NewHarness(t, p, nil)
	primary := h.Members()[0]
	e := h.NewEngine(primary)
	txs := []*types.Transaction{Tx(1)}
	e.Restore(0, 0, []consensus.DurableInstance{{
		Seq: 1, View: 0, Parent: ledger.GenesisHash(), Digest: types.BatchDigest(txs), Txs: txs,
	}}, h.Now)
	if !e.HasUncommitted() {
		t.Fatal("restored acceptance not reported uncommitted")
	}
	block1 := &types.Block{Txs: txs, Parents: []types.Hash{ledger.GenesisHash()}}
	if seq, head := e.ProposedHead(); seq != 1 || head != block1.Hash() {
		t.Fatalf("proposal chain at seq %d after restore, want 1", seq)
	}
	if _, seq := e.Propose([]*types.Transaction{Tx(2)}, h.Now); seq != 2 {
		t.Fatalf("proposal after restore took slot %d, want 2", seq)
	}
	if _, _, insts := e.DurableState(); len(insts) != 2 {
		t.Fatalf("durable state carries %d instances, want 2", len(insts))
	}
}

// reservedSlotParks: one backup's cross-shard engine holds its vote for
// slot 1. It must not vote there; the proposal parks, the cluster commits
// without it, and once the reservation is released (no chain advance — an
// abort) Tick admits the parked proposal and surfaces the decision.
func reservedSlotParks(t *testing.T, p Policy) {
	backup := types.NodeID(1)
	reserved := true
	h := NewHarness(t, p, func(id types.NodeID, cfg *ordering.Config) {
		if id == backup {
			cfg.Reserved = func(seq uint64) bool { return reserved && seq == 1 }
		}
	})
	h.Propose(Tx(1))
	wantDecided(t, h, h.Live(backup), 1)
	if n := h.Sent[backup][p.Vote] + h.Sent[backup][p.Commit]; n != 0 {
		t.Fatalf("backup sent %d votes at a reserved slot", n)
	}
	if len(h.Decided[backup]) != 0 {
		t.Fatal("backup decided a slot it never admitted")
	}
	h.Tick(time.Millisecond)
	if len(h.Decided[backup]) != 0 {
		t.Fatal("Tick admitted the proposal while the slot was still reserved")
	}
	reserved = false
	h.Tick(time.Millisecond)
	wantDecided(t, h, []types.NodeID{backup}, 1)
}

// stragglerDropped: votes that arrive after their slot was delivered are
// counted and dropped; they must not re-create the slot's instance.
func stragglerDropped(t *testing.T, p Policy) {
	backup := types.NodeID(1)
	metrics := obs.NewEngineMetrics(obs.NewRegistry(), "eng")
	h := NewHarness(t, p, func(id types.NodeID, cfg *ordering.Config) {
		if id == backup {
			cfg.Obs = metrics
		}
	})
	var late []*types.Envelope
	h.Drop = func(to types.NodeID, env *types.Envelope) bool {
		if to == backup && env.Type == p.Commit {
			late = append(late, env)
		}
		return false
	}
	h.Propose(Tx(1))
	wantDecided(t, h, h.Members(), 1)
	before := metrics.StragglerDrops.Load() // the run's own late votes
	for _, env := range late {
		if outs, decs := h.Deliver(backup, env); len(outs)+len(decs) != 0 {
			t.Fatal("a straggler produced output")
		}
	}
	if h.Engines[backup].HasUncommitted() {
		t.Fatal("a straggler resurrected a delivered slot")
	}
	if n := metrics.StragglerDrops.Load() - before; n != uint64(len(late)) {
		t.Fatalf("%d straggler drops counted, want %d", n, len(late))
	}
	if n := metrics.Instances.Load(); n != 0 {
		t.Fatalf("%d live instances after the stragglers, want 0", n)
	}
}

// failingLog is a Persister whose acceptance records fail while broken.
type failingLog struct{ broken bool }

func (l *failingLog) PersistAccept(uint64, uint64, types.Hash, types.Hash, []*types.Transaction) error {
	if l.broken {
		return errors.New("disk full")
	}
	return nil
}
func (l *failingLog) PersistView(uint64, uint64) error { return nil }

// unpersistableWithholdsVote: a node whose log cannot record an acceptance
// sends no vote for it; when the log recovers, a re-delivered proposal is
// recorded and voted for. A primary in the same position refuses to propose.
func unpersistableWithholdsVote(t *testing.T, p Policy) {
	backup := types.NodeID(1)
	log := &failingLog{broken: true}
	h := NewHarness(t, p, func(id types.NodeID, cfg *ordering.Config) {
		if id == backup || id == 0 {
			cfg.Persist = log
		}
	})
	primary := h.Members()[0]
	if seq := h.Launch(primary, Tx(1)); seq != 0 {
		t.Fatal("primary proposed an acceptance it could not record")
	}
	log.broken = false
	h.Launch(primary, Tx(1))
	var proposal *types.Envelope
	for _, env := range h.Held(backup) {
		if env.Type == p.Proposal {
			proposal = env
		}
	}
	log.broken = true
	if outs, _ := h.Deliver(backup, proposal); len(outs) != 0 {
		t.Fatal("backup voted for an acceptance it could not record")
	}
	log.broken = false
	if outs, _ := h.Deliver(backup, proposal); len(outs) == 0 {
		t.Fatal("backup withheld its vote after the log recovered")
	}
}
