// Package ordering is the intra-shard consensus engine of §3.1: a
// primary-led protocol that binds batches of transactions to the slots of
// one cluster's chain. SharPer makes the protocol pluggable and describes the
// Byzantine one (Fig. 3b) as the crash one (Fig. 3a) with one more phase and
// signed messages; the §4 baselines Fast Paxos and FaB drop a phase and
// decide on a larger quorum. The code says the same: one Engine owns the
// slot log, the proposal chain, parking, recovery, persistence and the view
// change, and an unexported vote policy (crash, byz or fast, chosen by the
// constructor) supplies what differs — how a proposal is voted on and what a
// view change may believe. Every policy speaks one message family
// (MsgPropose, MsgVote, MsgCommit) and decides on one quorum, the
// topology's n−f (consensus.Topology.Quorum).
//
// The engine is a pure state machine: callers feed it envelopes and timer
// ticks; it returns outbound messages and ordered decisions. It never
// touches the network, the ledger, or the clock, which keeps every protocol
// step deterministic and unit-testable.
package ordering

import (
	"fmt"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// Config parametrizes an Engine.
type Config struct {
	Topology *consensus.Topology
	Cluster  types.ClusterID
	Self     types.NodeID
	// Timeout before a backup suspects the primary for an in-flight
	// proposal and votes to change view.
	Timeout time.Duration
	// Signer and Verifier authenticate the messages of a Byzantine cluster
	// (§2.1); nil means no signatures. A crash cluster's messages are
	// unsigned and ignore both.
	Signer   crypto.Signer
	Verifier crypto.Verifier
	// Persist, when non-nil, is the stable-storage hook for acceptor state
	// (persist-before-ack; see consensus.Persister).
	Persist consensus.Persister
	// Reserved, when non-nil, reports whether the node's cross-shard engine
	// holds this node's vote for the given chain slot (§3.2: a node must
	// never vote for two values at one slot). The engine refuses to vote for
	// or propose an intra-shard binding at a reserved slot — it parks the
	// proposal instead and retries when the reservation clears. This check
	// sits at the vote boundary because proposals reach it through internal
	// paths (parked-gap retries, view-change re-proposals) that never pass
	// the node's dispatch-level deferral.
	Reserved func(seq uint64) bool
	// Obs, when non-nil, receives engine health metrics (view changes,
	// straggler drops, live instance count).
	Obs *obs.EngineMetrics
	// OnPrepared, when non-nil, fires when a proposal this primary launched
	// reaches its quorum — the crash policy's commit quorum, the Byzantine
	// policy's prepared certificate, the fast policy's deciding votes
	// (per-transaction lifecycle tracing).
	OnPrepared func(seq uint64)
	// Trace records protocol events into the engine's ring (DebugTrace).
	Trace bool
}

// Engine is one node's ordering state for one cluster.
type Engine struct {
	topo    *consensus.Topology
	cluster types.ClusterID
	self    types.NodeID
	peers   []types.NodeID // the cluster's members minus self; shared by every multicast, never written

	pol    policy
	quorum int // matching votes that decide a slot, and view-change votes that install a view (n−f)
	joinAt int // view-change votes for one view that make this node vote for it too

	view uint64

	// Proposal chain: the hash/seq of the latest block proposed (it may be
	// ahead of the committed head, which enables pipelining — block hashes
	// are computable at proposal time because they cover only the
	// transactions and parent links).
	proposedSeq  uint64
	proposedHead types.Hash

	// Committed progress, advanced by advance as decisions drain.
	committedSeq  uint64
	committedHead types.Hash

	instances map[uint64]*instance
	// parked holds proposals that arrived out of order (their seq or parent
	// does not yet extend our chain) or at a reserved slot; they are retried
	// whenever the proposal chain advances and on every Tick.
	parked map[uint64]*types.Envelope

	// View change bookkeeping. promised is the highest view this node has
	// voted a view change for: like a Paxos phase-1 promise, once cast the
	// node rejects proposals and votes from lower views — otherwise a vote
	// granted after the view-change vote would be invisible to the new
	// view's value recovery, and the deposed primary could commit with it.
	vcVotes      map[uint64]map[types.NodeID]*types.ViewChange
	viewChanging bool
	promised     uint64
	// vcDeadline bounds how long the node waits for the voted view to
	// install before escalating to the next one. Without it, a view whose
	// candidate primary is itself dead (view numbers rotate over all
	// members, crashed or not) wedges the cluster forever: every live node
	// sits in viewChanging, and Tick fires no further suspicion.
	vcDeadline time.Time

	// New-primary recovery state: values the view-change quorum reported,
	// to re-propose in order, and the committed sequence this node must
	// reach (by chain sync) before proposing anything — a voter reported
	// commits we have not seen, so proposing earlier could re-bind an
	// already-committed slot. The entries keep the certificate that admitted
	// them, re-reported if this primary is deposed too.
	pendingRepropose []types.PreparedInstance
	reproposeBarrier uint64

	timeout time.Duration

	// persist, when set, records acceptances and view positions to stable
	// storage before the message they vouch for leaves the node, so a
	// restarted acceptor cannot renege on a promise or an acceptance.
	persist  consensus.Persister
	reserved func(seq uint64) bool

	// ring is a bounded ring of structured protocol events for post-mortem
	// debugging (see DebugTrace), recorded only when Config.Trace is set —
	// the formatting is not free on the benchmark hot path. The wall-clock
	// stamp on each event lets a divergence hunt merge this ring with the
	// cross-shard engine's (and other processes') into one timeline.
	ring       *obs.EventRing
	metrics    *obs.EngineMetrics // nil-safe handles
	onPrepared func(seq uint64)
}

// instance is one slot of the log: the value bound to it, if known yet, and
// the votes heard for it.
type instance struct {
	digest types.Hash
	parent types.Hash
	txs    []*types.Transaction
	// block is the batch as a chain block, built once when the body is
	// known; its memoized Hash makes every later chain-walk relink cheap.
	block     *types.Block
	view      uint64
	own       bool // proposed by this node (as primary)
	committed bool
	deadline  time.Time
	// durableView/durableDigest track what PersistAccept last recorded for
	// this slot, so duplicate deliveries do not rewrite the log.
	durable       bool
	durableView   uint64
	durableDigest types.Hash
	votes
}

// bound reports whether the slot's value is known (a proposal was admitted,
// or Restore recovered one).
func (inst *instance) bound() bool { return len(inst.txs) > 0 }

// NewCrash creates an engine running the crash policy (Fig. 3a) at view 0
// with the genesis head.
func NewCrash(cfg Config, genesis types.Hash) *Engine {
	return newEngine(cfg, genesis, crash{}, 500*time.Millisecond)
}

// NewByzantine creates an engine running the Byzantine policy (Fig. 3b) at
// view 0 with the genesis head.
func NewByzantine(cfg Config, genesis types.Hash) *Engine {
	return newEngine(cfg, genesis, signing(cfg), time.Second)
}

// NewFast creates an engine running the two-phase policy of the §4
// baselines at view 0 with the genesis head: Fast Paxos over a crash
// cluster, FaB over a Byzantine one, whose messages are signed.
func NewFast(cfg Config, genesis types.Hash) *Engine {
	if cfg.Topology.ModelOf(cfg.Cluster) == types.Byzantine {
		return newEngine(cfg, genesis, fast{signing(cfg)}, 500*time.Millisecond)
	}
	return newEngine(cfg, genesis, fast{crash{}}, 500*time.Millisecond)
}

// signing is the Byzantine policy over the configured keys; nil keys mean
// no signatures.
func signing(cfg Config) byz {
	b := byz{signer: cfg.Signer, verify: cfg.Verifier}
	if b.signer == nil {
		b.signer = crypto.NoopSigner{}
	}
	if b.verify == nil {
		b.verify = crypto.NoopSigner{}
	}
	return b
}

func newEngine(cfg Config, genesis types.Hash, pol policy, defaultTimeout time.Duration) *Engine {
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	members := cfg.Topology.Members(cfg.Cluster)
	peers := make([]types.NodeID, 0, len(members))
	for _, m := range members {
		if m != cfg.Self {
			peers = append(peers, m)
		}
	}
	f := cfg.Topology.F(cfg.Cluster)
	return &Engine{
		topo:          cfg.Topology,
		cluster:       cfg.Cluster,
		self:          cfg.Self,
		peers:         peers,
		pol:           pol,
		quorum:        cfg.Topology.Quorum(cfg.Cluster),
		joinAt:        pol.joinAt(f),
		proposedHead:  genesis,
		committedHead: genesis,
		instances:     make(map[uint64]*instance),
		parked:        make(map[uint64]*types.Envelope),
		vcVotes:       make(map[uint64]map[types.NodeID]*types.ViewChange),
		timeout:       cfg.Timeout,
		persist:       cfg.Persist,
		reserved:      cfg.Reserved,
		ring:          obs.NewEventRing(0, cfg.Trace),
		metrics:       cfg.Obs,
		onPrepared:    cfg.OnPrepared,
	}
}

// DebugTrace returns the recent protocol events (oldest first), rendered in
// the trace dump line format.
func (e *Engine) DebugTrace() []string { return e.ring.Lines() }

// DebugEvents returns the recent protocol events in structured form.
func (e *Engine) DebugEvents() []obs.Event { return e.ring.Events() }

// DebugString renders internal engine state for test diagnostics.
func (e *Engine) DebugString() string {
	s := fmt.Sprintf("view=%d proposed=%d/%s committed=%d/%s vc=%v parked=%d",
		e.view, e.proposedSeq, e.proposedHead, e.committedSeq, e.committedHead,
		e.viewChanging, len(e.parked))
	for seq, inst := range e.instances {
		s += fmt.Sprintf(" inst[%d]{d=%s p=%s txs=%d v=%d acc=%d prep=%d com=%d cmt=%v sc=%v}",
			seq, inst.digest, inst.parent, len(inst.txs), inst.view,
			len(inst.accepted), len(inst.prepares), len(inst.commits), inst.committed, inst.sentCommit)
	}
	return s
}

// View returns the current view.
func (e *Engine) View() uint64 { return e.view }

// Primary returns the current primary of the cluster.
func (e *Engine) Primary() types.NodeID { return e.topo.Primary(e.cluster, e.view) }

// IsPrimary reports whether this node leads the current view.
func (e *Engine) IsPrimary() bool { return e.Primary() == e.self }

// ProposedHead returns the hash of the last block this node has proposed
// (primary) or voted for (backup) — the h_i the cluster contributes to
// cross-shard proposals.
func (e *Engine) ProposedHead() (uint64, types.Hash) { return e.proposedSeq, e.proposedHead }

// slotReserved reports whether the cross-shard engine holds this node's vote
// for the chain slot.
func (e *Engine) slotReserved(seq uint64) bool {
	return e.reserved != nil && e.reserved(seq)
}

// multicast addresses a message of this node to every other member, signed
// as the policy requires.
func (e *Engine) multicast(t types.MsgType, payload []byte) consensus.Outbound {
	return consensus.Outbound{
		To:  e.peers,
		Env: &types.Envelope{Type: t, From: e.self, Payload: payload, Sig: e.pol.sign(payload)},
	}
}

// relink walks the proposal chain upward from (seq, head) over the
// contiguous run of bound instances that still chain onto it, so the slots
// they occupy stay occupied.
func (e *Engine) relink(seq uint64, head types.Hash) {
	e.proposedSeq, e.proposedHead = seq, head
	for {
		inst, ok := e.instances[e.proposedSeq+1]
		if !ok || !inst.bound() || inst.parent != e.proposedHead {
			return
		}
		e.proposedSeq++
		e.proposedHead = inst.block.Hash()
	}
}

// SyncChainHead advances the proposal chain past a block decided outside
// this engine (a cross-shard block committed by the flattened protocol
// shares the cluster's chain). The runtime calls it after appending such a
// block so subsequent intra-shard proposals chain to it. In-flight
// proposals that no longer extend the chain are discarded — their clients
// retransmit — and out-of-order proposals parked earlier are retried; any
// resulting outbound messages are returned.
func (e *Engine) SyncChainHead(seq uint64, head types.Hash, now time.Time) ([]consensus.Outbound, []consensus.Decision, []*types.Transaction) {
	if seq <= e.committedSeq {
		// Stale: the engine has already committed past (or to) this height,
		// so the caller's chain is catching up to knowledge the engine
		// holds. Rewinding the proposal chain here would discard
		// accepted-but-uncommitted instances above seq — votes other nodes
		// may have counted toward commit quorums — and a node whose erased
		// vote later lets it vote a cross-shard block into one of those
		// slots forks the cluster.
		e.ring.Recordf("sync-head-stale", seq, types.ZeroHash, "c=%d p=%d", e.committedSeq, e.proposedSeq)
		return nil, nil, nil
	}
	e.ring.Recordf("sync-head", seq, head, "was c=%d p=%d parked=%d",
		e.committedSeq, e.proposedSeq, len(e.parked))
	e.committedSeq = seq
	e.committedHead = head
	// Slots at or below the new head are decided; their instances are
	// stale. This node's own uncommitted proposals among them are handed
	// back for re-proposal (the runtime dedups against the chain).
	var orphans []*types.Transaction
	for s, inst := range e.instances {
		if s <= seq {
			if inst.own && !inst.committed {
				orphans = append(orphans, inst.txs...)
			}
			delete(e.instances, s)
		}
	}
	// Instances ABOVE the new head survive if they still chain onto it: a
	// synced block is often exactly the parent an accepted-but-uncommitted
	// proposal was built on (the replica missed the commit, not the value),
	// and wiping such a vote is unsafe — the cluster counted it, so the slot
	// may already be committed elsewhere, while this replica would report
	// itself drained and vote a cross-shard block into that slot.
	// Everything past the first break is dead pipeline (it chained through
	// a block that lost the slot race).
	e.relink(seq, head)
	for s, inst := range e.instances {
		// Committed instances above the walk are kept: the cluster bound
		// those slots; chain sync will deliver or supersede them.
		if s > e.proposedSeq && !inst.committed {
			if inst.own {
				orphans = append(orphans, inst.txs...)
			}
			delete(e.instances, s)
		}
	}
	for s := range e.parked {
		if s <= seq {
			delete(e.parked, s)
		}
	}
	out, decs := e.retryParked(now)
	// The synced block may have satisfied the recovery barrier.
	out = append(out, e.drainRepropose(now)...)
	return out, decs, orphans
}

// HasUncommitted reports whether any slot above the committed head is known
// bound — a value voted for but not committed, or a commit observed above a
// gap or ahead of its body. The cross-shard protocol must not treat the
// chain as drained while such a slot exists: its value may already hold a
// commit quorum elsewhere, and a cross-shard block voted on the current head
// would fork the chain against it.
func (e *Engine) HasUncommitted() bool {
	for seq, inst := range e.instances {
		if seq > e.committedSeq && (inst.committed || inst.bound()) {
			return true
		}
	}
	return false
}

// retryParked replays parked proposals that may now extend the chain. The
// decisions it surfaces MUST reach the caller: a parked proposal whose
// commit raced ahead delivers the moment its body is admitted, and dropping
// that decision leaves the engine's committed state ahead of the ledger —
// the desync behind a whole class of intra/cross forks (the chain heals by
// sync, the backward head reset erases live votes, and the node votes a
// cross-shard block into a slot it had already promised to intra).
func (e *Engine) retryParked(now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	var out []consensus.Outbound
	var decs []consensus.Decision
	for {
		if e.slotReserved(e.proposedSeq + 1) {
			return out, decs // the slot is promised to a cross-shard vote
		}
		env, ok := e.parked[e.proposedSeq+1]
		if !ok {
			return out, decs
		}
		delete(e.parked, e.proposedSeq+1)
		o, d := e.onProposal(env, now)
		out = append(out, o...)
		decs = append(decs, d...)
		if len(o) == 0 {
			return out, decs // still not admissible; avoid spinning
		}
	}
}

// Propose starts consensus on a batch of transactions. Only the current
// primary may call it. It returns the proposal multicast (and the primary's
// own vote, where the policy broadcasts one) and the assigned sequence; the
// whole batch occupies one consensus instance and one block, and the digest
// the cluster votes on covers every transaction in the batch.
func (e *Engine) Propose(txs []*types.Transaction, now time.Time) ([]consensus.Outbound, uint64) {
	if !e.IsPrimary() || e.viewChanging || len(txs) == 0 {
		return nil, 0
	}
	// A fresh primary first replays what the deposed view owed the chain
	// (and catches up to any commit a view-change voter reported); new
	// client batches wait so they cannot steal a possibly-committed slot.
	if e.committedSeq < e.reproposeBarrier || len(e.pendingRepropose) > 0 {
		return nil, 0
	}
	seq := e.proposedSeq + 1
	if e.slotReserved(seq) {
		// The cross-shard engine holds this node's vote for the slot; the
		// batch stays queued until the reservation resolves.
		return nil, 0
	}
	parent := e.proposedHead
	block := &types.Block{Txs: txs, Parents: []types.Hash{parent}}
	digest := block.BatchDigest()
	if prev, ok := e.instances[seq]; ok {
		if prev.committed {
			// The slot is already bound (a commit raced ahead of its body):
			// proposing over it would erase that knowledge. Chain sync
			// delivers or supersedes it; the batch stays queued.
			return nil, 0
		}
		if prev.bound() && prev.view == e.view && prev.digest != digest {
			// This node already voted for a different value at the slot in
			// THIS view (a restored acceptance whose parent did not link
			// into the proposal walk): binding a second value at the same
			// (view, seq) is equivocation. A higher view's recovery may
			// overwrite it; the same view may not.
			return nil, 0
		}
	}
	// A fresh instance: a retained one from a deposed view may linger at
	// this slot, and its stale votes must not count toward the new binding.
	inst := &instance{
		digest: digest, parent: parent, txs: txs, block: block,
		view: e.view, own: true, deadline: now.Add(e.timeout),
	}
	// The primary's own acceptance counts toward the quorum, so it must be
	// just as durable as a backup's — and refused (batch back to the queue)
	// when storage cannot record it.
	if !e.persistAccept(seq, inst) {
		return nil, 0
	}
	e.instances[seq] = inst
	e.proposedSeq = seq
	e.proposedHead = block.Hash()
	e.ring.Recordf("propose", seq, digest, "v=%d tx0=%s", e.view, txs[0].ID)

	msg := &types.ConsensusMsg{
		View: e.view, Seq: seq, Digest: digest, Cluster: e.cluster,
		PrevHashes: block.Parents, Txs: txs,
	}
	out := []consensus.Outbound{e.multicast(types.MsgPropose, msg.Encode(nil))}
	out = append(out, e.pol.vote(e, inst, seq, e.self)...)
	e.metrics.InstGauge().Set(uint64(len(e.instances)))
	return out, seq
}

// Step consumes one protocol message and returns outbound messages plus any
// decisions that became deliverable (in sequence order).
func (e *Engine) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	outs, decs := e.step(env, now)
	e.metrics.InstGauge().Set(uint64(len(e.instances)))
	return outs, decs
}

func (e *Engine) step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	if !e.pol.authentic(env) {
		return nil, nil
	}
	switch env.Type {
	case types.MsgPropose:
		return e.onProposal(env, now)
	case types.MsgViewChange:
		return e.onViewChange(env, now)
	case types.MsgNewView:
		return e.onNewView(env, now)
	}
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil, nil
	}
	return e.pol.onVote(e, env, m)
}

// onProposal admits the primary's proposal into the slot log — the same
// checks under either policy — and hands the bound instance to the policy
// for this node's vote.
func (e *Engine) onProposal(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	// An intra-shard block extends exactly one chain: one parent.
	if err != nil || len(m.Txs) == 0 || len(m.PrevHashes) != 1 {
		return nil, nil
	}
	// Only the primary of the message's view may propose, and only at or
	// above the view this node has promised.
	if env.From != e.topo.Primary(e.cluster, m.View) || m.View < e.promised {
		return nil, nil
	}
	body := &types.Block{Txs: m.Txs, Parents: m.PrevHashes}
	if !e.pol.admits(e.view, m, body) {
		return nil, nil
	}
	if m.View > e.view {
		// We lag behind a view change; adopt the higher view.
		e.installView(m.View, now)
	}
	// Proposals must extend our chain in order: seq proposedSeq+1 with the
	// parent equal to our proposed head. Later proposals park until the gap
	// fills (out-of-order delivery or a cross-shard block in between);
	// earlier or non-extending ones are stale and ignored. A duplicate of
	// the current in-flight proposal falls through to be voted on again.
	parent := m.PrevHashes[0]
	inst := e.instances[m.Seq]
	if dup := m.Seq == e.proposedSeq && inst != nil && inst.parent == parent; !dup {
		if m.Seq != e.proposedSeq+1 {
			if m.Seq > e.proposedSeq+1 {
				e.parked[m.Seq] = env
			}
			return nil, nil
		}
		if parent != e.proposedHead {
			return nil, nil // does not extend our chain (stale across a cross-shard commit)
		}
	}
	if e.slotReserved(m.Seq) {
		// This node's cross-shard vote has promised the slot away (§3.2);
		// voting for an intra-shard binding there would vote twice at one
		// height. Park the proposal: it retries when the reservation clears
		// (cross commit advancing the chain, or abort/expiry via Tick).
		e.ring.Recordf("reserve-park", m.Seq, m.Digest, "v=%d", m.View)
		e.parked[m.Seq] = env
		return nil, nil
	}
	inst = e.instanceAt(m.Seq)
	// One binding per (view, slot): the first proposal of a view stands (an
	// equivocating primary's second is dropped), and a slot known committed
	// (awaiting its body or the gap below it) takes no other value.
	if (inst.committed || inst.bound() && inst.view == m.View) && inst.digest != m.Digest {
		return nil, nil
	}
	if inst.view != m.View {
		// A retained instance from a deposed view is overwritten by the new
		// view's proposal; its old votes must not leak into the new binding.
		inst.votes = votes{}
		inst.own = false
	}
	inst.digest = m.Digest
	inst.parent = parent
	inst.txs = m.Txs
	inst.block = body
	inst.view = m.View
	inst.deadline = now.Add(e.timeout)
	e.ring.Recordf("accept", m.Seq, m.Digest, "v=%d tx0=%s", m.View, m.Txs[0].ID)
	if m.Seq > e.proposedSeq {
		e.proposedSeq = m.Seq
		e.proposedHead = body.Hash()
	}
	// Persist the acceptance before the vote leaves: the cluster will count
	// it toward a quorum (and, under the Byzantine policy, inside a prepared
	// certificate), so this node must still report it after a restart
	// (view-change value recovery). Unpersistable ⇒ no vote; a re-delivered
	// proposal retries.
	if !e.persistAccept(m.Seq, inst) {
		return nil, nil
	}
	out := e.pol.vote(e, inst, m.Seq, env.From)
	// A commit may have arrived before this proposal (network reordering):
	// now that the transaction body is known, the decision can deliver.
	decs := e.advance()
	o2, d2 := e.retryParked(now)
	return append(out, o2...), append(decs, d2...)
}

// instanceAt returns the slot's instance, creating an unbound one on first
// mention (by its proposal, or by a vote that arrived ahead of it).
func (e *Engine) instanceAt(seq uint64) *instance {
	inst, ok := e.instances[seq]
	if !ok {
		inst = &instance{}
		e.instances[seq] = inst
	}
	return inst
}

// straggler reports (and counts) a vote for a slot that is already
// delivered. Such a vote must not resurrect the slot's deleted instance:
// the zombie would sit in e.instances forever — only SyncChainHead trims
// below the head — and every Tick and HasUncommitted sweep would pay to skip
// it. The slasher audited the envelope before dispatch, so no equivocation
// evidence is lost.
func (e *Engine) straggler(seq uint64) bool {
	if seq > e.committedSeq {
		return false
	}
	e.metrics.Stragglers().Inc()
	return true
}

// reachedQuorum stamps a proposal this primary launched with the "prepared"
// lifecycle mark when its quorum forms.
func (e *Engine) reachedQuorum(seq uint64, inst *instance) {
	if e.onPrepared != nil && inst.own {
		e.onPrepared(seq)
	}
}

// advance drains committed instances in sequence order into decisions.
func (e *Engine) advance() []consensus.Decision {
	var out []consensus.Decision
	for {
		seq := e.committedSeq + 1
		inst, ok := e.instances[seq]
		if !ok || !inst.committed || !inst.bound() {
			return out
		}
		e.committedSeq = seq
		e.committedHead = inst.block.Hash()
		e.ring.Recordf("deliver", seq, inst.digest, "")
		out = append(out, consensus.Decision{Block: inst.block, Seq: seq})
		delete(e.instances, seq)
		e.metrics.InstGauge().Set(uint64(len(e.instances)))
	}
}

// Tick fires proposal timeouts: a backup with an instance past its deadline
// suspects the primary and votes for the next view. A fresh primary uses the
// tick to retry its recovery obligations once chain sync catches it up. A
// node stuck mid-view-change past its deadline escalates to the next view —
// the candidate primary may be dead too.
func (e *Engine) Tick(now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	if e.viewChanging {
		if now.After(e.vcDeadline) {
			next := e.promised + 1
			e.ring.Recordf("vc-escalate", 0, types.ZeroHash, "nv=%d", next)
			return e.startViewChange(next, now), nil
		}
		return nil, nil
	}
	// A slot reservation released without a chain advance (cross-shard abort
	// or expiry) leaves reserve-parked proposals with no other retry path.
	out, decs := e.retryParked(now)
	if e.IsPrimary() {
		return append(out, e.drainRepropose(now)...), decs
	}
	for seq, inst := range e.instances {
		if seq > e.committedSeq && !inst.committed && inst.bound() && now.After(inst.deadline) {
			return append(out, e.startViewChange(e.view+1, now)...), decs
		}
	}
	return out, decs
}
