package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// xengine runs SharPer's flattened cross-shard consensus: Algorithm 1 (§3.2)
// when every cluster is crash-only, Algorithm 2 (§3.3) as soon as one may lie.
// The paper describes Algorithm 2 as Algorithm 1 with 2f+1 quorums per
// cluster, signed messages and decentralised accept and commit phases, and
// the code says the same: the engine owns one lifecycle per cross-shard batch
// (an xinst, keyed by the batch digest), and an xpolicy — crash or byz —
// supplies only what the two algorithms do differently.
//
// The lifecycle: the initiator primary multicasts PROPOSE to every node of
// every involved cluster (lines 6–8); each node validates its local part and
// answers ACCEPT carrying its cluster's previous-block hash h_j (lines 9–11);
// matching accepts from a quorum of every involved cluster fix the
// per-cluster hash list (lines 12–14), and COMMIT appends the block (lines
// 15–16).
//
// Conflict handling follows §3.2 "Safety and Liveness", enforced through the
// node's shared conflict table rather than a whole-node boolean lock: a node
// that has sent an ACCEPT holds the table's slot vote (it has promised its
// chain head to this attempt) until the COMMIT or an ABORT arrives, or the
// vote expires. A node votes only on a drained chain with the slot vote
// grantable; otherwise the proposal parks and is re-stepped FIFO when the
// vote frees or the chain advances. Concurrent conflicting transactions can
// deadlock each other's quorums, so an initiator whose attempt times out
// *withdraws* it: it releases its own vote, multicasts ABORT to release the
// participants', and re-proposes after an exponentially backed-off,
// jittered delay at a higher attempt view — votes are keyed by view, so
// stale accepts never form a quorum. The unilateral lock expiry remains as a
// last resort against a crashed initiator.
//
// An initiator keeps several leads in flight (the conflict table admits
// same-set attempts, which pipeline FIFO through the participants' slot
// votes, and cluster-disjoint attempts, which never contend): the PROPOSE for
// the next attempt travels while the previous one commits. The initiator's
// own vote for a lead is deferred while another attempt holds the slot and
// cast the moment it frees.
type xengine struct {
	pol     xpolicy
	topo    *consensus.Topology
	cluster types.ClusterID
	self    types.NodeID

	status   func() chainStatus            // local cluster-chain state
	validate func(*types.Transaction) bool // local-part validation

	// table is the node-wide conflict table: the single authority over the
	// slot vote and lead admission, shared with the node's scheduler.
	table    *consensus.ConflictTable
	maxLeads int

	lockTimeout  time.Duration
	retryTimeout time.Duration
	rng          *rand.Rand

	// Proposals waiting for the slot vote or an undrained chain,
	// deduplicated by digest (retries replace earlier copies). waitOrder
	// keeps arrival order so parked proposals drain FIFO — pipelined
	// same-set attempts from one initiator must be granted in the order
	// they were proposed at every participant, or they withdraw-churn.
	waiting   map[types.Hash]xparked
	waitOrder []types.Hash

	// insts holds every undecided batch this node knows of; leads indexes
	// the ones it initiates.
	insts map[types.Hash]*xinst
	leads map[types.Hash]*xinst

	// decided holds when each recently decided digest was decided, so late
	// messages for it are ignored; decidedOrder lists the same digests in
	// decision order, and forget drops them once no message can matter.
	decided      map[types.Hash]time.Time
	decidedOrder []types.Hash

	// Diagnostics (read via Stats).
	nPropose, nWithdraw, nGrant, nDecide, nLockExpire, nParks int

	// ring is a bounded ring of slot-vote events (Config.Trace only), read
	// next to the intra engine's ring when hunting intra/cross forks: the two
	// rings together show every vote a node cast for one chain slot.
	ring *obs.EventRing
	// tracer, when non-nil, receives digest-keyed lifecycle stamps for
	// sampled cross-shard transactions (propose / lock-grant / prepared).
	tracer *obs.TxTracer
}

// xinst is one cross-shard batch as this node knows it: the participant's
// vote and, at the initiator, the attempt it runs.
type xinst struct {
	digest   types.Hash
	txs      []*types.Transaction // nil until a PROPOSE (or a byz COMMIT) carries the batch
	involved types.ClusterSet
	// proposer sent the first PROPOSE this node admitted (this node, if it
	// initiated the batch).
	proposer types.NodeID
	born     time.Time // first heard of; bounds how long an idle instance is kept
	// view is the attempt this node votes in — at the initiator, the attempt
	// it runs. Accepts are keyed by view.
	view    uint64
	voted   bool // this node's ACCEPT for view is cast
	accepts *consensus.HashVoteSet
	lead    *xlead // non-nil while this node initiates the batch

	// The byz commit phase. pinned is the one hash list this node has
	// endorsed with a COMMIT (commitEnv, kept for re-broadcast): re-commits
	// must match it, which keeps two different commit quorums for one digest
	// from ever co-existing. keyHashes remembers the hash list behind every
	// commit key seen, so the decision adopts whichever key reaches quorum.
	commits   *consensus.VoteSet
	keyHashes map[consensus.VoteKey]keyedHashes
	pinned    []types.Hash
	commitEnv *types.Envelope
}

// xlead is the initiator's retry state.
type xlead struct {
	attempts int
	deadline time.Time
	dormant  bool // withdrawn, waiting out the backoff before re-proposing
	// waitNoted marks an attempt whose deferred own vote SelfVoteWaits has
	// counted.
	waitNoted bool
	// fastRetried limits split-vote-triggered re-proposals to one per timer
	// window, so persistently split heads cannot spin the initiator.
	fastRetried bool
}

// xparked is a PROPOSE waiting for the slot vote or a drained chain.
type xparked struct {
	from types.NodeID
	m    *types.ConsensusMsg
}

// needsVote reports whether inst is a live lead whose own vote for the
// current attempt is still to be cast.
func (inst *xinst) needsVote() bool {
	return inst.lead != nil && !inst.lead.dormant && !inst.voted && inst.pinned == nil
}

// addAccept records node's ACCEPT m, speaking for cluster c.
func (inst *xinst) addAccept(c types.ClusterID, node types.NodeID, m *types.ConsensusMsg) {
	if inst.accepts == nil {
		inst.accepts = consensus.NewHashVoteSet()
	}
	inst.accepts.Add(c, node, consensus.HashVote{
		Key:   consensus.VoteKey{View: m.View, Digest: m.Digest},
		Prev:  m.PrevHashes[0],
		Valid: m.Seq,
	})
}

// maxCrossAttempts bounds initiator re-proposals; past it the instance is
// dropped and the client's retransmission takes over.
const maxCrossAttempts = 64

// xpolicy is everything Algorithms 1 and 2 do differently. The engine calls
// it where the two part ways; the instance carries whatever it hears.
type xpolicy interface {
	// sign authenticates an outgoing payload; nil means unsigned.
	sign(payload []byte) []byte
	// authentic reports whether an incoming envelope is from who it claims.
	authentic(env *types.Envelope) bool
	// accept sends this node's ACCEPT m for inst.
	accept(x *xengine, inst *xinst, m *types.ConsensusMsg) []consensus.Outbound
	// tallied returns the instance an incoming ACCEPT counts toward, or nil
	// and the answer to one nobody here counts.
	tallied(x *xengine, from types.NodeID, m *types.ConsensusMsg, now time.Time) (*xinst, []consensus.Outbound)
	// onQuorum acts on matching accepts from a quorum of every involved
	// cluster, which agree on the hash list.
	onQuorum(x *xengine, inst *xinst, hashes []types.Hash, valid uint64, now time.Time) ([]consensus.Outbound, []crossDecision)
	// onCommit consumes a COMMIT for a digest not decided here.
	onCommit(x *xengine, from types.NodeID, m *types.ConsensusMsg, now time.Time) []crossDecision
	// honours reports whether an ABORT for a digest not decided here may
	// release this node's vote.
	honours(x *xengine, from types.NodeID, m *types.ConsensusMsg) bool
	// repropose answers a granted PROPOSE for an instance this node may have
	// committed to; false leaves it to the ordinary vote.
	repropose(x *xengine, inst *xinst, st chainStatus, now time.Time) ([]consensus.Outbound, bool)
	// tick fires the policy's own timers.
	tick(x *xengine, now time.Time) []consensus.Outbound
}

func newXEngine(topo *consensus.Topology, cluster types.ClusterID, self types.NodeID,
	signer crypto.Signer, verifier crypto.Verifier, table *consensus.ConflictTable,
	status func() chainStatus, validate func(*types.Transaction) bool,
	lockTimeout, retryTimeout time.Duration, maxLeads int, seed int64) *xengine {
	if maxLeads <= 0 {
		maxLeads = 1
	}
	// Algorithm 1 applies only when every cluster is crash-only; as soon as
	// any cluster may lie, Algorithm 2 runs deployment-wide with per-cluster
	// quorums (f+1 from crash clusters, 2f+1 from Byzantine ones) — the
	// hybrid arrangement §3.4 sketches via SeeMoRe.
	var pol xpolicy = &crash{recent: make(map[types.Hash]*xretained)}
	if topo.AnyByzantine() {
		pol = byz{signer: signer, verify: verifier}
	}
	return &xengine{
		pol: pol, topo: topo, cluster: cluster, self: self, status: status, validate: validate,
		table: table, maxLeads: maxLeads,
		lockTimeout: lockTimeout, retryTimeout: retryTimeout,
		rng:     rand.New(rand.NewSource(seed)),
		waiting: make(map[types.Hash]xparked),
		insts:   make(map[types.Hash]*xinst),
		leads:   make(map[types.Hash]*xinst),
		decided: make(map[types.Hash]time.Time),
	}
}

// Locked reports whether this node's slot vote is held by an in-flight
// cross-shard attempt (§3.2: a node that voted accepts no other transaction
// for that chain slot until commit, abort or timeout).
func (x *xengine) Locked() bool { return x.table.Held() }

// Waiting reports the number of cross-shard proposals parked at this node
// (held back by a lock or an undrained chain). A primary must stop feeding
// intra-shard proposals while this is non-zero, or the chain never drains and
// the parked proposals starve.
func (x *xengine) Waiting() int { return len(x.waiting) }

// Pending reports the number of undecided batches this node keeps state for.
func (x *xengine) Pending() int { return len(x.insts) }

// Stats reports the scheduler-observability counters (leads in flight,
// conflict-table size, parks, withdraws, deferral precision).
func (x *xengine) Stats() types.SchedStats {
	_, _, _, defers, avoided, selfWaits, hw := x.table.Stats()
	return types.SchedStats{
		Proposes:      uint64(x.nPropose),
		Withdraws:     uint64(x.nWithdraw),
		Grants:        uint64(x.nGrant),
		Decides:       uint64(x.nDecide),
		LockExpiries:  uint64(x.nLockExpire),
		Parks:         uint64(x.nParks),
		LeadsInFlight: uint64(x.table.Leads()),
		LeadHighWater: hw,
		TableSize:     uint64(x.table.Size()),
		Defers:        defers,
		DefersAvoided: avoided,
		SelfVoteWaits: selfWaits,
	}
}

// CanInitiate reports whether a new lead over the involved-cluster set may
// launch alongside the in-flight ones: the conflict table admits identical
// sets (they pipeline FIFO) and sets disjoint outside the own cluster (they
// never contend), up to the lead cap.
func (x *xengine) CanInitiate(involved types.ClusterSet) bool {
	depth := x.maxLeads
	if depth > crossLeadDepth {
		depth = crossLeadDepth
	}
	return x.table.CanLead(involved, depth)
}

// ActiveLeads reports the in-flight leads over exactly this set, so the
// scheduler can keep accumulating a batch while one works (launching every
// arrival as a batch-of-one forfeits the amortization batching buys).
func (x *xengine) ActiveLeads(involved types.ClusterSet) int {
	return x.table.LeadsFor(involved)
}

// Leading reports whether the transaction rides in an attempt this node is
// still initiating (in flight, or withdrawn and backing off), so a client
// retransmission of it must not be batched a second time.
func (x *xengine) Leading(id types.TxID) bool {
	for _, inst := range x.leads {
		for _, tx := range inst.txs {
			if tx.ID == id {
				return true
			}
		}
	}
	return false
}

// NeedsSlot reports whether an in-flight lead is still waiting to cast its
// own vote; the node's scheduler must let the chain drain then instead of
// feeding it new intra-shard proposals.
func (x *xengine) NeedsSlot() bool {
	for _, inst := range x.leads {
		if inst.needsVote() {
			return true
		}
	}
	return false
}

// backoff returns the jittered, exponentially growing re-propose delay.
func (x *xengine) backoff(attempts int) time.Duration {
	shift := attempts - 1
	if shift > 2 {
		shift = 2
	}
	base := x.retryTimeout << uint(shift)
	return base + time.Duration(x.rng.Int63n(int64(x.retryTimeout)))
}

func (x *xengine) done(digest types.Hash) bool {
	_, ok := x.decided[digest]
	return ok
}

func (x *xengine) instance(digest types.Hash, now time.Time) *xinst {
	inst := x.insts[digest]
	if inst == nil {
		inst = &xinst{digest: digest, born: now}
		x.insts[digest] = inst
	}
	return inst
}

// envelope encodes m as this node's message of type t, signed if the policy
// signs.
func (x *xengine) envelope(t types.MsgType, m *types.ConsensusMsg) *types.Envelope {
	payload := m.Encode(nil)
	return &types.Envelope{Type: t, From: x.self, Payload: payload, Sig: x.pol.sign(payload)}
}

// toInvolved multicasts m to every other node of the involved clusters.
func (x *xengine) toInvolved(involved types.ClusterSet, t types.MsgType, m *types.ConsensusMsg) consensus.Outbound {
	return consensus.Outbound{To: othersOf(x.topo.InvolvedNodes(involved), x.self), Env: x.envelope(t, m)}
}

// Initiate starts flattened consensus (lines 6–8) on a batch of cross-shard
// transactions that share one involved-cluster set. The caller guarantees
// this node is the primary of an involved cluster (normally the super
// primary) and has checked CanInitiate.
func (x *xengine) Initiate(txs []*types.Transaction, now time.Time) []consensus.Outbound {
	involved, ok := batchInvolved(txs)
	if !ok {
		return nil
	}
	digest := types.BatchDigest(txs)
	if x.done(digest) || x.leads[digest] != nil {
		return nil
	}
	inst := x.instance(digest, now)
	inst.txs, inst.involved, inst.proposer = txs, involved, x.self
	inst.lead = &xlead{}
	x.leads[digest] = inst
	x.table.RegisterLead(digest, involved)
	outs, _ := x.propose(inst, now) // a fresh attempt cannot decide: no other cluster has voted
	return outs
}

// propose (re)issues the PROPOSE multicast for a lead at a new attempt view
// and casts the initiator's own vote if the slot is free.
func (x *xengine) propose(inst *xinst, now time.Time) ([]consensus.Outbound, []crossDecision) {
	lead := inst.lead
	x.nPropose++
	x.tracer.StampDigest(inst.digest, obs.StagePropose, now)
	lead.attempts++
	lead.dormant, lead.fastRetried, lead.waitNoted = false, false, false
	lead.deadline = now.Add(x.backoff(lead.attempts))
	inst.view++
	inst.voted = false
	inst.accepts = nil

	st := x.status()
	x.ring.Recordf("xpropose", st.Seq+1, inst.digest, "v=%d attempt=%d", inst.view, lead.attempts)
	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     inst.digest,
		Cluster:    x.cluster,
		PrevHashes: []types.Hash{st.Head},
		Txs:        inst.txs,
	}
	outs := []consensus.Outbound{x.toInvolved(inst.involved, types.MsgXPropose, m)}
	o, d := x.castLeadVote(inst, now)
	return append(outs, o...), d
}

// castLeadVote casts the initiator's own vote once the chain is drained and
// the slot vote is grantable; until then the vote waits (the PROPOSE is
// already in flight — participants vote meanwhile).
func (x *xengine) castLeadVote(inst *xinst, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if !inst.needsVote() {
		return nil, nil
	}
	st := x.status()
	if !st.Drained || !x.table.CanVote(inst.digest) {
		if !inst.lead.waitNoted {
			inst.lead.waitNoted = true
			x.table.NoteSelfVoteWait()
		}
		return nil, nil
	}
	x.tracer.StampDigest(inst.digest, obs.StageLockGrant, now)
	x.ring.Recordf("xselfvote", st.Seq+1, inst.digest, "head=%s v=%d", st.Head, inst.view)
	outs := x.vote(inst, st, now)
	o, d := x.tally(inst, now)
	return append(outs, o...), d
}

// vote takes the slot vote for inst's current attempt — the §3.2 lock,
// promising the chain head as the predecessor of the next chain slot — and
// sends this node's ACCEPT: that head (h_j) and the verdict on the batch's
// local part.
func (x *xengine) vote(inst *xinst, st chainStatus, now time.Time) []consensus.Outbound {
	x.table.Acquire(inst.digest, inst.involved, st.Seq+1, st.Head, now.Add(x.lockTimeout))
	inst.voted = true
	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     inst.digest,
		Cluster:    x.cluster,
		PrevHashes: []types.Hash{st.Head},
		// Seq doubles as the per-transaction validity bitmap of the batch.
		Seq: validBits(inst.txs, x.validate),
	}
	return x.pol.accept(x, inst, m)
}

// tally checks inst's accepts for its current attempt. A quorum of every
// involved cluster agreeing on that cluster's head goes to the policy; a
// lead whose votes have provably split re-proposes at once.
func (x *xengine) tally(inst *xinst, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if inst.txs == nil {
		return nil, nil
	}
	key := consensus.VoteKey{View: inst.view, Digest: inst.digest}
	if hashes, valid, ok := inst.accepts.QuorumAllPrev(inst.involved, key, x.topo.Quorum); ok {
		return x.pol.onQuorum(x, inst, hashes, valid, now)
	}
	// If some cluster's votes have split across chain heads so that no
	// matching quorum can ever form at this view, re-propose now: the lagging
	// nodes will have converged by the time the new attempt arrives.
	// Participants stay locked on the digest throughout. At most one fast
	// retry per timer window, so persistently split heads fall back to the
	// withdraw/backoff cycle instead of spinning.
	lead := inst.lead
	if lead == nil || lead.dormant || lead.fastRetried {
		return nil, nil
	}
	for _, c := range inst.involved {
		if inst.accepts.MatchImpossible(c, key, x.topo.Quorum(c), len(x.topo.Members(c))) {
			outs, decs := x.propose(inst, now)
			lead.fastRetried = true
			return outs, decs
		}
	}
	return nil, nil
}

// decide records digest as decided and forgets everything else about it.
func (x *xengine) decide(digest types.Hash, txs []*types.Transaction, hashes []types.Hash, valid uint64, now time.Time) []crossDecision {
	if inst := x.insts[digest]; inst != nil && inst.lead != nil {
		x.nDecide++
	}
	x.decided[digest] = now
	x.decidedOrder = append(x.decidedOrder, digest)
	x.ring.Recordf("xdecide", 0, digest, "")
	x.unpark(digest)
	x.unlock(digest)
	delete(x.insts, digest)
	delete(x.leads, digest)
	x.table.DropLead(digest)
	return []crossDecision{{Txs: txs, Digest: digest, Hashes: hashes, Valid: valid}}
}

// withdraw abandons a lead's current attempt: it releases this node's own
// vote (unless it has committed to the attempt) and asks the participants to
// release theirs. The lead stays registered (dormant) so its set keeps
// screening new lead admissions until it decides or is dropped; its next
// attempt runs at a higher view, which no stale accept matches.
func (x *xengine) withdraw(inst *xinst, now time.Time) consensus.Outbound {
	x.nWithdraw++
	x.ring.Recordf("xwithdraw", 0, inst.digest, "v=%d selfvote-pending=%v", inst.view, inst.needsVote())
	inst.lead.dormant = true
	inst.lead.deadline = now.Add(x.backoff(inst.lead.attempts))
	if inst.pinned == nil {
		x.unlock(inst.digest)
	}
	m := &types.ConsensusMsg{View: inst.view, Digest: inst.digest, Cluster: x.cluster}
	return x.toInvolved(inst.involved, types.MsgXAbort, m)
}

func (x *xengine) unlock(digest types.Hash) {
	if x.table.Release(digest) {
		x.ring.Recordf("xrelease", 0, digest, "")
	}
}

// Step consumes a cross-shard protocol message.
func (x *xengine) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if !x.pol.authentic(env) {
		return nil, nil
	}
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil, nil
	}
	switch env.Type {
	case types.MsgXPropose:
		return x.onPropose(env.From, m, now), nil
	case types.MsgXAccept:
		return x.onAccept(env.From, m, now)
	case types.MsgXCommit:
		if !x.done(m.Digest) {
			return nil, x.pol.onCommit(x, env.From, m, now)
		}
	case types.MsgXAbort:
		if !x.done(m.Digest) && x.pol.honours(x, env.From, m) {
			// The aborted attempt's vote is released and its parked copy
			// dropped (the initiator re-sends a fresh one when it retries).
			x.ring.Recordf("xabort", 0, m.Digest, "v=%d from=%s", m.View, env.From)
			x.unpark(m.Digest)
			x.unlock(m.Digest)
			return x.castThenDrain(now)
		}
	}
	return nil, nil
}

// park holds a proposal back until the slot vote frees or the chain drains,
// keeping arrival order for FIFO granting.
func (x *xengine) park(digest types.Hash, from types.NodeID, m *types.ConsensusMsg) {
	if _, ok := x.waiting[digest]; !ok {
		x.waitOrder = append(x.waitOrder, digest)
		x.nParks++
	}
	x.waiting[digest] = xparked{from: from, m: m}
}

// unpark removes a proposal from the waiting set (granted, committed,
// aborted, or decided); waitOrder is compacted lazily by drainWaiting.
func (x *xengine) unpark(digest types.Hash) {
	delete(x.waiting, digest)
}

// onPropose implements lines 9–11: admit the proposal, then vote on it if
// the chain is drained and the slot vote grantable, else park it.
func (x *xengine) onPropose(from types.NodeID, m *types.ConsensusMsg, now time.Time) []consensus.Outbound {
	involved, ok := batchInvolved(m.Txs)
	if !ok || !involved.Contains(x.cluster) || m.View == 0 {
		return nil
	}
	digest := types.BatchDigest(m.Txs)
	if digest != m.Digest || x.done(digest) {
		return nil
	}
	// The proposer must belong to an involved cluster; a node outside the
	// involved set has no business initiating.
	if pc, ok := x.topo.ClusterOf(from); !ok || !involved.Contains(pc) {
		return nil
	}
	inst := x.instance(digest, now)
	if inst.view == 0 {
		inst.proposer = from
	}
	inst.txs, inst.involved = m.Txs, involved
	if m.View > inst.view {
		// A new attempt by the initiator: vote again at the higher view.
		inst.view, inst.voted = m.View, false
	}
	st := x.status()
	if !st.Drained || !x.table.CanVote(digest) {
		x.ring.Recordf("xpark", st.Seq+1, digest, "drained=%v v=%d from=%s", st.Drained, m.View, from)
		x.park(digest, from, m)
		return nil
	}
	x.unpark(digest)
	if outs, handled := x.pol.repropose(x, inst, st, now); handled {
		return outs
	}
	if inst.voted {
		return nil
	}
	x.nGrant++
	x.ring.Recordf("xvote", st.Seq+1, digest, "head=%s v=%d from=%s", st.Head, m.View, from)
	return x.vote(inst, st, now)
}

// onAccept counts an ACCEPT (lines 12–14) toward the instance the policy
// assigns it to.
func (x *xengine) onAccept(from types.NodeID, m *types.ConsensusMsg, now time.Time) ([]consensus.Outbound, []crossDecision) {
	c, ok := x.topo.ClusterOf(from)
	if !ok || len(m.PrevHashes) != 1 {
		return nil, nil
	}
	inst, reply := x.pol.tallied(x, from, m, now)
	if inst == nil {
		return reply, nil
	}
	if x.ring.Enabled() { // boxing the hash costs an allocation per ACCEPT even with the ring off
		x.ring.Recordf("xaccept", 0, m.Digest, "prev=%s v=%d from=%s", m.PrevHashes[0], m.View, from)
	}
	inst.addAccept(c, from, m)
	return x.tally(inst, now)
}

// OnChainAdvanced is called after the local chain appends a block: it retries
// pending initiator votes and parked proposals. Self-votes go first: an
// in-flight lead waiting for its own cluster's slot already holds (or is
// acquiring) higher clusters' slots, so granting its home lock before any
// foreign parked proposal keeps every attempt's lock acquisition
// lowest-cluster-first — the ordering that keeps the cross-shard waits-for
// graph acyclic.
func (x *xengine) OnChainAdvanced(now time.Time) ([]consensus.Outbound, []crossDecision) {
	x.voidStaleSelfVote()
	return x.castThenDrain(now)
}

// castThenDrain casts pending self-votes, then grants parked proposals —
// unless a self-vote just decided its lead. That lead has taken the next
// chain slot, but its block is appended only after this call returns, so
// status() still names the head it extends: a vote cast now would be a
// second vote at that slot. The runtime calls OnChainAdvanced once the block
// lands, and the parked proposals are voted on then, at the new head.
func (x *xengine) castThenDrain(now time.Time) ([]consensus.Outbound, []crossDecision) {
	outs, decs := x.castSelfVotes(now)
	if len(decs) > 0 {
		return outs, decs
	}
	return append(outs, x.drainWaiting(now)...), nil
}

// castSelfVotes retries pending initiator votes in digest order (a
// deterministic tie-break; at most one can take the slot anyway), stopping at
// the first that decides its lead.
func (x *xengine) castSelfVotes(now time.Time) ([]consensus.Outbound, []crossDecision) {
	if !x.status().Drained {
		return nil, nil // no self-vote can be cast; skip the scan
	}
	if d, held := x.table.Holder(); held {
		// Only the holder itself may vote again (a voided self-vote, below).
		if inst := x.leads[d]; inst == nil || !inst.needsVote() {
			return nil, nil
		}
	}
	var pending []types.Hash
	for dg, inst := range x.leads {
		if inst.needsVote() {
			pending = append(pending, dg)
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		return bytes.Compare(pending[i][:], pending[j][:]) < 0
	})
	var outs []consensus.Outbound
	for _, dg := range pending {
		if inst, ok := x.leads[dg]; ok {
			o, d := x.castLeadVote(inst, now)
			outs = append(outs, o...)
			if len(d) > 0 {
				return outs, d
			}
		}
	}
	return outs, nil
}

// voidStaleSelfVote re-opens the initiator vote of a lead whose promised chain
// slot another block has just filled. The backups of the initiator's cluster
// see a foreign PROPOSE before the initiator's own about as often as after
// it; when enough of them vote the foreign attempt it commits into the slot
// the initiator promised its lead, and that vote — a previous-block hash that
// is no longer the head — can never match a backup's again. Left alone it
// also keeps the slot vote held, so the initiator can grant nothing else: its
// lead sits one vote short until the retry timer withdraws it (three of seven
// withdrawals traced on an 8-cluster, 10 %-cross run). Under crash the vote
// never left the node, so casting it again at the new head costs nothing;
// under byz the next ACCEPT replaces it at every receiver (a second accept for
// one (view, digest) at a new chain head is what an honest node also sends
// after a lock expiry, and is not equivocation). A node that has committed keeps
// its vote.
func (x *xengine) voidStaleSelfVote() {
	d, held := x.table.Holder()
	if !held {
		return
	}
	inst := x.leads[d]
	if inst == nil || inst.lead.dormant || !inst.voted || inst.pinned != nil {
		return
	}
	if slot, _ := x.table.ReservedSlot(); slot <= x.status().Seq {
		x.ring.Recordf("xstale", slot, d, "v=%d", inst.view)
		inst.voted = false
		inst.lead.waitNoted = false
	}
}

// drainWaiting re-steps parked proposals in arrival order; at most one
// acquires the slot vote, the rest re-park. FIFO order keeps pipelined
// same-set attempts from one initiator granting in propose order at every
// participant.
func (x *xengine) drainWaiting(now time.Time) []consensus.Outbound {
	if len(x.waiting) == 0 || x.table.Held() {
		x.compactWaitOrder()
		return nil
	}
	if !x.status().Drained {
		// No parked proposal can be granted on an undrained chain; skip the
		// rescan until the intra pipeline lands.
		return nil
	}
	pending := append([]types.Hash(nil), x.waitOrder...)
	var outs []consensus.Outbound
	for _, dg := range pending {
		p, ok := x.waiting[dg]
		if !ok {
			continue // unpark happened; compacted below
		}
		outs = append(outs, x.onPropose(p.from, p.m, now)...)
		if x.table.Held() {
			break
		}
	}
	x.compactWaitOrder()
	return outs
}

// compactWaitOrder drops unparked digests once they dominate the order list.
func (x *xengine) compactWaitOrder() {
	if len(x.waitOrder) <= 4*len(x.waiting)+8 {
		return
	}
	kept := x.waitOrder[:0]
	for _, dg := range x.waitOrder {
		if _, ok := x.waiting[dg]; ok {
			kept = append(kept, dg)
		}
	}
	x.waitOrder = kept
}

// Tick runs the policy's timers, expires the slot vote (the fallback against
// a crashed initiator), forgets what no longer matters, and drives the
// initiator's withdraw/backoff/re-propose cycle.
func (x *xengine) Tick(now time.Time) ([]consensus.Outbound, []crossDecision) {
	outs := x.pol.tick(x, now)
	if d, ok := x.table.ExpireHolder(now); ok {
		x.nLockExpire++
		x.ring.Recordf("xexpire", 0, d, "")
	}
	x.forget(now)
	var decs []crossDecision
	for digest, inst := range x.leads {
		lead := inst.lead
		if !now.After(lead.deadline) {
			continue
		}
		if lead.dormant {
			// Re-propose only when this node could actually vote again:
			// between withdraw and re-propose the slot may have been granted
			// to a parked proposal.
			if x.table.CanVote(digest) && x.status().Drained {
				o, d := x.propose(inst, now)
				outs, decs = append(outs, o...), append(decs, d...)
			} else {
				lead.deadline = now.Add(x.retryTimeout)
			}
			continue
		}
		outs = append(outs, x.withdraw(inst, now))
		if lead.attempts >= maxCrossAttempts {
			inst.lead = nil
			delete(x.leads, digest)
			x.table.DropLead(digest)
			continue
		}
		// Same-set followers share the conflict that stalled this attempt
		// AND must not keep remote slot votes while the home slot could go to
		// a foreign attempt: withdraw them together.
		for _, f := range x.leads {
			if f != inst && !f.lead.dormant && f.involved.Equal(inst.involved) {
				outs = append(outs, x.withdraw(f, now))
			}
		}
	}
	o, d := x.castThenDrain(now)
	return append(outs, o...), append(decs, d...)
}

// forget drops an instance that nobody here leads, holds the slot vote for,
// has parked or has committed to, once lockTimeout has passed since it was
// first heard of — an ACCEPT or COMMIT for a digest never proposed here, or
// an attempt its initiator gave up, would otherwise stay for ever. It also
// forgets decisions older than twice lockTimeout: no node still holds a vote
// for them (a vote expires after lockTimeout, its nudge comes earlier), so no
// message about them can matter.
func (x *xengine) forget(now time.Time) {
	for dg, inst := range x.insts {
		if inst.lead != nil || inst.pinned != nil || now.Sub(inst.born) <= x.lockTimeout || x.table.Holds(dg) {
			continue
		}
		if _, parked := x.waiting[dg]; !parked {
			delete(x.insts, dg)
		}
	}
	for len(x.decidedOrder) > 0 && now.Sub(x.decided[x.decidedOrder[0]]) > 2*x.lockTimeout {
		delete(x.decided, x.decidedOrder[0])
		x.decidedOrder = x.decidedOrder[1:]
	}
}

// crash is Algorithm 1's policy: nodes fail only by stopping, so nothing is
// signed, a participant's ACCEPT goes to the initiator alone, and the
// initiator tallies, decides and multicasts a COMMIT that participants
// believe — it carries the batch and the agreed hash list.
type crash struct {
	// A participant whose slot vote has sat un-released for most of its
	// window re-sends its ACCEPT (nudge) to the initiator (nudgeTo): a
	// decided attempt answers with the (possibly lost) commit, a withdrawn
	// one with an abort — either beats expiring unilaterally and diverging.
	// nudgeDigest names the vote the ACCEPT belongs to.
	nudge       *types.Envelope
	nudgeTo     types.NodeID
	nudgeDigest types.Hash
	nudged      bool

	// recent retains decided attempts' COMMIT multicasts for a bounded
	// retransmission schedule: a commit lost or badly delayed on its way to
	// a participant cluster would otherwise leave that cluster's view
	// permanently missing the block (no participant can fetch a decision it
	// never saw, and intra-cluster chain sync cannot heal a cluster where
	// nobody has it). recentDue holds the same entries in deadline order —
	// every deadline is set to now + lockTimeout/4, so that is the order they
	// are queued in — and tick looks at its head only.
	recent    map[types.Hash]*xretained
	recentDue []*xretained
}

// xretained schedules a decided attempt's COMMIT retransmissions.
type xretained struct {
	digest   types.Hash
	env      *types.Envelope
	to       []types.NodeID
	resends  int
	deadline time.Time
}

// maxCommitResends bounds the retransmission schedule; each round doubles
// the reach window while duplicates stay idempotent at the receivers.
const maxCommitResends = 2

func (*crash) sign([]byte) []byte             { return nil }
func (*crash) authentic(*types.Envelope) bool { return true }

// honours: any ABORT releases — only the initiator sends one.
func (*crash) honours(*xengine, types.NodeID, *types.ConsensusMsg) bool { return true }

func (*crash) repropose(*xengine, *xinst, chainStatus, time.Time) ([]consensus.Outbound, bool) {
	return nil, false
}

// accept: the initiator counts its own vote; a participant answers the
// initiator alone and keeps the ACCEPT to nudge it with.
func (c *crash) accept(x *xengine, inst *xinst, m *types.ConsensusMsg) []consensus.Outbound {
	if inst.proposer == x.self {
		inst.addAccept(x.cluster, x.self, m)
		return nil
	}
	env := x.envelope(types.MsgXAccept, m)
	c.nudge, c.nudgeTo, c.nudgeDigest, c.nudged = env, inst.proposer, inst.digest, false
	return []consensus.Outbound{{To: []types.NodeID{inst.proposer}, Env: env}}
}

// tallied: only the initiator counts accepts, and only for its live attempt.
// A re-sent accept for a decided attempt means the sender never saw the
// commit (its lock timer is nudging it): repeat the commit point-to-point
// while it is retained. Any other accept is for a withdrawn or dropped
// attempt: abort it, so the sender does not sit on a dead vote until its
// timer fires.
func (c *crash) tallied(x *xengine, from types.NodeID, m *types.ConsensusMsg, _ time.Time) (*xinst, []consensus.Outbound) {
	if inst := x.leads[m.Digest]; inst != nil && !inst.lead.dormant && m.View == inst.view {
		return inst, nil
	}
	if x.done(m.Digest) {
		if r, ok := c.recent[m.Digest]; ok {
			return nil, []consensus.Outbound{{To: []types.NodeID{from}, Env: r.env}}
		}
		return nil, nil
	}
	abort := &types.ConsensusMsg{View: m.View, Digest: m.Digest, Cluster: x.cluster}
	return nil, []consensus.Outbound{{To: []types.NodeID{from}, Env: x.envelope(types.MsgXAbort, abort)}}
}

// onQuorum decides at the initiator and multicasts COMMIT with the full hash
// list, retaining it for retransmission: participants are holding their
// chains locked for it, and a lost or slow copy must not strand a cluster
// without the decided block.
func (c *crash) onQuorum(x *xengine, inst *xinst, hashes []types.Hash, valid uint64, now time.Time) ([]consensus.Outbound, []crossDecision) {
	x.tracer.StampDigest(inst.digest, obs.StagePrepared, now)
	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     inst.digest,
		Cluster:    x.cluster,
		PrevHashes: hashes,
		Txs:        inst.txs,
		Seq:        valid, // aggregated validity bitmap
	}
	out := x.toInvolved(inst.involved, types.MsgXCommit, m)
	r := &xretained{digest: inst.digest, env: out.Env, to: out.To, deadline: now.Add(x.lockTimeout / 4)}
	c.recent[inst.digest] = r
	c.recentDue = append(c.recentDue, r)
	return []consensus.Outbound{out}, x.decide(inst.digest, inst.txs, hashes, valid, now)
}

// onCommit implements lines 15–16 at participants: execute and append.
func (*crash) onCommit(x *xengine, _ types.NodeID, m *types.ConsensusMsg, now time.Time) []crossDecision {
	involved, ok := batchInvolved(m.Txs)
	if !ok || !involved.Contains(x.cluster) || len(m.PrevHashes) != len(involved) {
		return nil
	}
	return x.decide(m.Digest, m.Txs, m.PrevHashes, m.Seq, now)
}

// tick nudges the initiator of a vote about to expire and retransmits
// retained commits on schedule.
func (c *crash) tick(x *xengine, now time.Time) []consensus.Outbound {
	var outs []consensus.Outbound
	if dl, held := x.table.HolderDeadline(); held && !c.nudged && c.nudge != nil &&
		x.table.Holds(c.nudgeDigest) && now.After(dl.Add(-x.lockTimeout/4)) {
		c.nudged = true
		outs = append(outs, consensus.Outbound{To: []types.NodeID{c.nudgeTo}, Env: c.nudge})
	}
	for len(c.recentDue) > 0 && now.After(c.recentDue[0].deadline) {
		r := c.recentDue[0]
		c.recentDue[0] = nil
		c.recentDue = c.recentDue[1:]
		if r.resends >= maxCommitResends {
			delete(c.recent, r.digest)
			continue
		}
		r.resends++
		r.deadline = now.Add(x.lockTimeout / 4)
		c.recentDue = append(c.recentDue, r)
		outs = append(outs, consensus.Outbound{To: r.to, Env: r.env})
	}
	return outs
}

// byz is Algorithm 2's policy: every message is signed and verified, and the
// accept and commit phases are decentralised — every node multicasts its
// ACCEPT and COMMIT to all nodes of all involved clusters, so no single node
// is trusted to tally votes. Because everyone tallies, guards keep a stale
// attempt from committing after a release: a node commits only while it
// holds the slot vote and its cluster's agreed hash is still its head, and
// an ABORT does not release a node that has committed (its cluster may be
// pinned by the decision in flight).
type byz struct {
	signer crypto.Signer
	verify crypto.Verifier
}

func (b byz) sign(payload []byte) []byte { return b.signer.Sign(payload) }

func (b byz) authentic(env *types.Envelope) bool {
	if ok, known := env.Auth(); known {
		return ok // verdict precomputed by the parallel verification pool
	}
	return b.verify.Verify(env.From, env.Payload, env.Sig)
}

// accept multicasts the ACCEPT to every involved node and counts it here.
func (byz) accept(x *xengine, inst *xinst, m *types.ConsensusMsg) []consensus.Outbound {
	inst.addAccept(x.cluster, x.self, m)
	return []consensus.Outbound{x.toInvolved(inst.involved, types.MsgXAccept, m)}
}

// tallied: every node counts every accept, before the PROPOSE if need be.
func (byz) tallied(x *xengine, _ types.NodeID, m *types.ConsensusMsg, now time.Time) (*xinst, []consensus.Outbound) {
	if x.done(m.Digest) {
		return nil, nil
	}
	return x.instance(m.Digest, now), nil
}

// onQuorum multicasts this node's COMMIT for the agreed hash list and pins it.
func (b byz) onQuorum(x *xengine, inst *xinst, hashes []types.Hash, valid uint64, now time.Time) ([]consensus.Outbound, []crossDecision) {
	// Only a node still holding the slot vote commits, so a withdrawn attempt
	// can never resurrect after its votes were released; and the agreed
	// parent for its own cluster must still be its head.
	if inst.pinned != nil || !x.table.Holds(inst.digest) {
		return nil, nil
	}
	if i := indexOf(inst.involved, x.cluster); i < 0 || hashes[i] != x.status().Head {
		return nil, nil
	}
	x.tracer.StampDigest(inst.digest, obs.StagePrepared, now)
	x.ring.Recordf("xcommit", 0, inst.digest, "v=%d", inst.view)
	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     inst.digest,
		Cluster:    x.cluster,
		PrevHashes: hashes,
		Txs:        inst.txs,
		Seq:        valid, // aggregated validity bitmap
	}
	out := x.toInvolved(inst.involved, types.MsgXCommit, m)
	inst.pinned, inst.commitEnv = hashes, out.Env
	b.addCommit(inst, x.cluster, x.self, hashes, valid)
	return []consensus.Outbound{out}, b.maybeDecide(x, inst, now)
}

// onCommit (lines 15–16) counts a COMMIT, adopting the batch it carries.
func (b byz) onCommit(x *xengine, from types.NodeID, m *types.ConsensusMsg, now time.Time) []crossDecision {
	c, ok := x.topo.ClusterOf(from)
	if !ok {
		return nil
	}
	inst := x.instance(m.Digest, now)
	if inst.txs == nil {
		if involved, ok := batchInvolved(m.Txs); ok && types.BatchDigest(m.Txs) == m.Digest {
			inst.txs, inst.involved = m.Txs, involved
		}
	}
	b.addCommit(inst, c, from, m.PrevHashes, m.Seq)
	return b.maybeDecide(x, inst, now)
}

func (byz) addCommit(inst *xinst, c types.ClusterID, node types.NodeID, hashes []types.Hash, valid uint64) {
	if inst.commits == nil {
		inst.commits = consensus.NewVoteSet()
		inst.keyHashes = make(map[consensus.VoteKey]keyedHashes)
	}
	key := commitKey(inst.digest, hashes, valid)
	inst.keyHashes[key] = keyedHashes{hashes: hashes, valid: valid}
	inst.commits.Add(c, node, key)
}

// maybeDecide decides once matching COMMITs from a quorum of every involved
// cluster agree on one hash list.
func (byz) maybeDecide(x *xengine, inst *xinst, now time.Time) []crossDecision {
	if inst.txs == nil {
		return nil
	}
	for key, kh := range inst.keyHashes {
		if inst.commits.QuorumAll(inst.involved, key, x.topo.Quorum) {
			return x.decide(inst.digest, inst.txs, kh.hashes, kh.valid, now)
		}
	}
	return nil
}

// honours: only the attempt's proposer may abort it, and not once this node
// has committed.
func (byz) honours(x *xengine, from types.NodeID, m *types.ConsensusMsg) bool {
	inst := x.insts[m.Digest]
	return inst != nil && inst.proposer == from && inst.pinned == nil
}

// repropose: a node pinned to a commit whose parent is still its head helps
// the new attempt converge on the same hash list — it re-votes its pinned
// head and re-broadcasts its stored COMMIT.
func (b byz) repropose(x *xengine, inst *xinst, st chainStatus, now time.Time) ([]consensus.Outbound, bool) {
	b.releaseDeadCommit(x, inst, st)
	if inst.pinned == nil {
		return nil, false
	}
	var outs []consensus.Outbound
	if !inst.voted {
		outs = x.vote(inst, st, now)
	}
	return append(outs, consensus.Outbound{To: othersOf(x.topo.InvolvedNodes(inst.involved), x.self), Env: inst.commitEnv}), true
}

// releaseDeadCommit clears a pinned commit whose agreed parent for this
// cluster no longer matches the chain head. Heads only move forward, so no
// correct node of this cluster can ever endorse that hash list again: the
// attempt is dead, and holding its slot vote would wedge the node.
func (byz) releaseDeadCommit(x *xengine, inst *xinst, st chainStatus) {
	if inst.pinned == nil {
		return
	}
	if i := indexOf(inst.involved, x.cluster); i < 0 || inst.pinned[i] == st.Head {
		return
	}
	inst.pinned, inst.commitEnv, inst.voted = nil, nil, false
	x.unlock(inst.digest)
}

func (b byz) tick(x *xengine, _ time.Time) []consensus.Outbound {
	st := x.status()
	for _, inst := range x.insts {
		b.releaseDeadCommit(x, inst, st)
	}
	return nil
}

// keyedHashes pairs a commit key's hash list with its validity bitmap.
type keyedHashes struct {
	hashes []types.Hash
	valid  uint64
}

// commitKey folds the agreed hash list and validity bitmap into the vote
// key so only commits endorsing identical outcomes match.
func commitKey(digest types.Hash, hashes []types.Hash, valid uint64) consensus.VoteKey {
	buf := make([]byte, 0, 32*(len(hashes)+1)+8)
	buf = append(buf, digest[:]...)
	for _, h := range hashes {
		buf = append(buf, h[:]...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, valid)
	return consensus.VoteKey{Digest: types.HashBytes(buf)}
}

// indexOf returns the position of cluster c in the involved set, or -1.
func indexOf(set types.ClusterSet, c types.ClusterID) int {
	for i, ic := range set {
		if ic == c {
			return i
		}
	}
	return -1
}

// othersOf filters self out of a destination list.
func othersOf(nodes []types.NodeID, self types.NodeID) []types.NodeID {
	out := make([]types.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if n != self {
			out = append(out, n)
		}
	}
	return out
}
