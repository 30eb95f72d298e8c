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

// xbyz implements Algorithm 2: flattened cross-shard consensus with
// Byzantine nodes. Compared to Algorithm 1 the per-cluster quorum grows
// from f+1 to 2f+1 and the accept and commit phases are decentralized:
// every node of every involved cluster multicasts its (signed) ACCEPT and
// COMMIT to all nodes of all involved clusters, so no single node is
// trusted to tally votes.
//
// Conflict handling mirrors the crash engine: scheduling goes through the
// node's shared conflict table (slot vote + lead admission), an initiator
// whose attempt stalls withdraws it with a signed ABORT and re-proposes
// after a jittered exponential backoff, and several leads pipeline when the
// table admits them. Because votes are tallied by everyone, two extra
// guards protect against stale attempts committing after a release:
//   - a node multicasts COMMIT only while it still holds the slot vote for
//     the digest and the agreed hash for its own cluster still equals its
//     chain head, and
//   - an ABORT does not release a node that has already entered the commit
//     phase (its cluster may be pinned by the in-flight decision).
type xbyz struct {
	topo    *consensus.Topology
	cluster types.ClusterID
	self    types.NodeID
	signer  crypto.Signer
	verify  crypto.Verifier

	status   func() chainStatus
	validate func(*types.Transaction) bool

	table    *consensus.ConflictTable
	maxLeads int

	lockTimeout  time.Duration
	retryTimeout time.Duration
	rng          *rand.Rand

	waiting   map[types.Hash]*types.Envelope
	waitOrder []types.Hash

	instances map[types.Hash]*xinst
	leads     map[types.Hash]*xbyzLead
	decided   map[types.Hash]bool

	// Diagnostics (read via Stats).
	nPropose, nWithdraw, nGrant, nDecide, nLockExpire, nParks int

	// ring is a bounded ring of slot-vote events (SHARPER_TRACE only); the
	// crash engine keeps the same ring, so a divergence hunt reads one
	// timeline format regardless of the fault model.
	ring *obs.EventRing
	// tracer, when non-nil, receives digest-keyed lifecycle stamps for
	// sampled cross-shard transactions (propose / lock-grant / prepared).
	tracer *obs.TxTracer
}

// DebugTrace returns the recent slot-vote events (oldest first).
func (x *xbyz) DebugTrace() []string { return x.ring.Lines() }

// DebugEvents returns the recent slot-vote events in structured form.
func (x *xbyz) DebugEvents() []obs.Event { return x.ring.Events() }

// xinst is per-digest participant state.
type xinst struct {
	txs        []*types.Transaction
	involved   types.ClusterSet
	proposer   types.NodeID
	view       uint64
	accepts    *consensus.HashVoteSet
	commits    *consensus.VoteSet
	sentAccept bool
	sentCommit bool
	// needAccept marks a lead instance whose own accept is still deferred
	// behind a busy slot vote; it is cast when the slot frees.
	needAccept bool
	// keyHashes remembers the hash list behind every commit key seen, so
	// the decision adopts whichever key reaches quorum.
	keyHashes map[consensus.VoteKey]keyedHashes
	// committedHashes pins the one hash list this node has endorsed with a
	// COMMIT; re-commits must match it, which keeps two different commit
	// quorums for the same digest from ever co-existing.
	committedHashes []types.Hash
	commitEnv       *types.Envelope // stored commit for re-broadcast
}

// slotOf returns the index of cluster c in the instance's involved set.
func (inst *xinst) slotOf(c types.ClusterID) int {
	for i, ic := range inst.involved {
		if ic == c {
			return i
		}
	}
	return -1
}

// xbyzLead is initiator-only retry state.
type xbyzLead struct {
	txs      []*types.Transaction
	involved types.ClusterSet
	view     uint64
	deadline time.Time
	dormant  bool
	attempts int
	// fastRetried limits split-vote-triggered re-proposals to one per
	// timer window (see xlead.fastRetried).
	fastRetried bool
}

func newXByz(topo *consensus.Topology, cluster types.ClusterID, self types.NodeID,
	signer crypto.Signer, verifier crypto.Verifier, table *consensus.ConflictTable,
	status func() chainStatus, validate func(*types.Transaction) bool,
	lockTimeout, retryTimeout time.Duration, maxLeads int, seed int64) *xbyz {
	if maxLeads <= 0 {
		maxLeads = 1
	}
	return &xbyz{
		topo: topo, cluster: cluster, self: self,
		signer: signer, verify: verifier, status: status, validate: validate,
		table: table, maxLeads: maxLeads,
		lockTimeout: lockTimeout, retryTimeout: retryTimeout,
		rng:       rand.New(rand.NewSource(seed)),
		waiting:   make(map[types.Hash]*types.Envelope),
		instances: make(map[types.Hash]*xinst),
		leads:     make(map[types.Hash]*xbyzLead),
		decided:   make(map[types.Hash]bool),
		ring:      obs.NewTraceRing(),
	}
}

func (x *xbyz) Locked() bool { return x.table.Held() }

func (x *xbyz) Waiting() int { return len(x.waiting) }

func (x *xbyz) Pending() int { return len(x.instances) + len(x.waiting) }

// CanInitiate consults the conflict table's lead-admission rule.
func (x *xbyz) CanInitiate(involved types.ClusterSet) bool {
	depth := x.maxLeads
	if depth > crossLeadDepth {
		depth = crossLeadDepth
	}
	return x.table.CanLead(involved, depth)
}

// ActiveLeads counts in-flight leads over exactly this set.
func (x *xbyz) ActiveLeads(involved types.ClusterSet) int {
	return x.table.LeadsFor(involved)
}

// Leading reports whether id rides in one of this node's undecided leads.
func (x *xbyz) Leading(id types.TxID) bool {
	for _, lead := range x.leads {
		for _, tx := range lead.txs {
			if tx.ID == id {
				return true
			}
		}
	}
	return false
}

// NeedsSlot reports whether a lead instance still waits to cast its accept.
func (x *xbyz) NeedsSlot() bool {
	for digest, inst := range x.instances {
		if inst.needAccept {
			if lead, ok := x.leads[digest]; ok && !lead.dormant {
				return true
			}
		}
	}
	return false
}

// Stats reports the scheduler-observability counters.
func (x *xbyz) Stats() types.SchedStats {
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

func (x *xbyz) backoff(attempts int) time.Duration {
	shift := attempts - 1
	if shift > 2 {
		shift = 2
	}
	base := x.retryTimeout << uint(shift)
	return base + time.Duration(x.rng.Int63n(int64(x.retryTimeout)))
}

func (x *xbyz) getInstance(digest types.Hash) *xinst {
	inst, ok := x.instances[digest]
	if !ok {
		inst = &xinst{
			accepts:   consensus.NewHashVoteSet(),
			commits:   consensus.NewVoteSet(),
			keyHashes: make(map[consensus.VoteKey]keyedHashes),
		}
		x.instances[digest] = inst
	}
	return inst
}

func (x *xbyz) acquire(digest types.Hash, involved types.ClusterSet, st chainStatus, now time.Time) {
	x.table.Acquire(digest, involved, st.Seq+1, st.Head, now.Add(x.lockTimeout))
}

func (x *xbyz) unlock(digest types.Hash) {
	x.table.Release(digest)
}

// Initiate starts Algorithm 2 (lines 6–8) on a batch of cross-shard
// transactions that share one involved-cluster set.
func (x *xbyz) Initiate(txs []*types.Transaction, now time.Time) []consensus.Outbound {
	involved, ok := batchInvolved(txs)
	if !ok {
		return nil
	}
	digest := types.BatchDigest(txs)
	if x.decided[digest] || x.leads[digest] != nil {
		return nil
	}
	lead := &xbyzLead{txs: txs, involved: involved}
	x.leads[digest] = lead
	x.table.RegisterLead(digest, involved)
	return x.propose(lead, digest, now)
}

func (x *xbyz) propose(lead *xbyzLead, digest types.Hash, now time.Time) []consensus.Outbound {
	x.nPropose++
	x.tracer.StampDigest(digest, obs.StagePropose, now)
	x.ring.Recordf("xpropose", uint64(lead.attempts+1), digest, "v=%d", lead.view+1)
	lead.attempts++
	lead.view++
	lead.dormant = false
	lead.fastRetried = false
	lead.deadline = now.Add(x.backoff(lead.attempts))

	st := x.status()
	msg := &types.ConsensusMsg{
		View:       lead.view,
		Digest:     digest,
		Cluster:    x.cluster,
		PrevHashes: []types.Hash{st.Head},
		Txs:        lead.txs,
	}
	payload := msg.Encode(nil)
	out := []consensus.Outbound{{
		To: othersOf(x.topo.InvolvedNodes(lead.involved), x.self),
		Env: &types.Envelope{Type: types.MsgXPropose, From: x.self,
			Payload: payload, Sig: x.signer.Sign(payload)},
	}}

	// Join the accept phase at the new attempt view ourselves; the accept is
	// deferred if another attempt holds the slot vote.
	inst := x.getInstance(digest)
	inst.txs = lead.txs
	inst.involved = lead.involved
	inst.proposer = x.self
	if lead.view > inst.view && !inst.sentCommit {
		inst.view = lead.view
		inst.sentAccept = false
	}
	out = append(out, x.tryVote(inst, digest, now)...)
	return out
}

// tryVote casts this node's accept for the instance once the chain is
// drained and the slot vote is grantable, deferring it otherwise.
func (x *xbyz) tryVote(inst *xinst, digest types.Hash, now time.Time) []consensus.Outbound {
	if inst.sentAccept || inst.sentCommit {
		inst.needAccept = false
		return nil
	}
	st := x.status()
	if !st.Drained || !x.table.CanVote(digest) {
		if !inst.needAccept {
			inst.needAccept = true
			x.table.NoteSelfVoteWait()
		}
		return nil
	}
	inst.needAccept = false
	x.acquire(digest, inst.involved, st, now)
	x.tracer.StampDigest(digest, obs.StageLockGrant, now)
	x.ring.Recordf("xselfvote", st.Seq+1, digest, "head=%s v=%d", st.Head, inst.view)
	return x.sendAccept(inst, digest, st)
}

// castSelfVotes retries deferred lead accepts in digest order.
func (x *xbyz) castSelfVotes(now time.Time) ([]consensus.Outbound, []crossDecision) {
	if !x.status().Drained {
		return nil, nil // no accept can be cast; skip the scan
	}
	if d, held := x.table.Holder(); held {
		// Only the holder itself may vote again (a voided accept, below).
		if inst := x.instances[d]; inst == nil || !inst.needAccept {
			return nil, nil
		}
	}
	var pending []types.Hash
	for digest, inst := range x.instances {
		if inst.needAccept {
			if lead, ok := x.leads[digest]; ok && !lead.dormant {
				pending = append(pending, digest)
			}
		}
	}
	if len(pending) == 0 {
		return nil, nil
	}
	sort.Slice(pending, func(i, j int) bool {
		return bytes.Compare(pending[i][:], pending[j][:]) < 0
	})
	var outs []consensus.Outbound
	var decs []crossDecision
	for _, digest := range pending {
		inst := x.instances[digest]
		if inst == nil {
			continue
		}
		outs = append(outs, x.tryVote(inst, digest, now)...)
		if inst.sentAccept {
			// Our vote may have been the last one missing.
			o, d := x.maybeCommit(inst, digest, now)
			outs = append(outs, o...)
			decs = append(decs, d...)
		}
	}
	return outs, decs
}

// withdraw invalidates the current attempt and asks participants that have
// not entered the commit phase to release their slot votes.
func (x *xbyz) withdraw(lead *xbyzLead, digest types.Hash, now time.Time) []consensus.Outbound {
	x.nWithdraw++
	x.ring.Recordf("xwithdraw", 0, digest, "v=%d", lead.view)
	lead.dormant = true
	lead.deadline = now.Add(x.backoff(lead.attempts))

	msg := &types.ConsensusMsg{View: lead.view, Digest: digest, Cluster: x.cluster}
	payload := msg.Encode(nil)
	out := []consensus.Outbound{{
		To: othersOf(x.topo.InvolvedNodes(lead.involved), x.self),
		Env: &types.Envelope{Type: types.MsgXAbort, From: x.self,
			Payload: payload, Sig: x.signer.Sign(payload)},
	}}
	// Release ourselves under the same rule as everyone else.
	if inst := x.instances[digest]; inst != nil {
		inst.needAccept = false
		if !inst.sentCommit {
			x.unlock(digest)
		}
	}
	return out
}

// Step dispatches Algorithm 2 messages. All payloads must carry a valid
// signature from the claimed sender (§2.1).
func (x *xbyz) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if ok, known := env.Auth(); known {
		if !ok {
			return nil, nil // verdict precomputed by the parallel verification pool
		}
	} else if !x.verify.Verify(env.From, env.Payload, env.Sig) {
		return nil, nil
	}
	switch env.Type {
	case types.MsgXPropose:
		return x.onPropose(env, now)
	case types.MsgXAccept:
		return x.onAccept(env, now)
	case types.MsgXCommit:
		return x.onCommit(env)
	case types.MsgXAbort:
		return x.onAbort(env, now)
	default:
		return nil, nil
	}
}

// park holds a proposal back in arrival order (see xcrash.park).
func (x *xbyz) park(digest types.Hash, env *types.Envelope) {
	if _, ok := x.waiting[digest]; !ok {
		x.waitOrder = append(x.waitOrder, digest)
		x.nParks++
	}
	x.waiting[digest] = env
}

func (x *xbyz) unpark(digest types.Hash) {
	delete(x.waiting, digest)
}

// onPropose (lines 9–11): validate and multicast a signed ACCEPT carrying
// h_j to every node of every involved cluster.
func (x *xbyz) onPropose(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil, nil
	}
	involved, ok := batchInvolved(m.Txs)
	if !ok || !involved.Contains(x.cluster) {
		return nil, nil
	}
	digest := types.BatchDigest(m.Txs)
	if digest != m.Digest || x.decided[digest] {
		return nil, nil
	}
	// The proposer must belong to an involved cluster; a node outside the
	// involved set has no business initiating (malicious traffic).
	pc, ok := x.topo.ClusterOf(env.From)
	if !ok || !involved.Contains(pc) {
		return nil, nil
	}
	st := x.status()
	inst := x.getInstance(digest)
	inst.txs = m.Txs
	inst.involved = involved
	if inst.proposer == 0 {
		inst.proposer = env.From
	}
	if !st.Drained || !x.table.CanVote(digest) {
		x.ring.Recordf("xpark", st.Seq+1, digest, "drained=%v v=%d from=%s", st.Drained, m.View, env.From)
		x.park(digest, env)
		return nil, nil
	}
	x.unpark(digest)
	x.maybeReleaseDeadCommit(inst, digest, st)
	if inst.sentCommit {
		// We are pinned to a commit whose parent is still our head: help
		// the new attempt converge to the same hash list by re-voting our
		// pinned h and re-broadcasting our stored commit.
		var out []consensus.Outbound
		if m.View > inst.view {
			inst.view = m.View
			inst.sentAccept = false
			out = x.sendAccept(inst, digest, st)
		}
		if inst.commitEnv != nil {
			out = append(out, consensus.Outbound{
				To:  othersOf(x.topo.InvolvedNodes(inst.involved), x.self),
				Env: inst.commitEnv,
			})
		}
		return out, nil
	}
	if m.View > inst.view {
		// New attempt by the initiator: vote again at the higher view.
		inst.view = m.View
		inst.sentAccept = false
	}
	if inst.sentAccept {
		return nil, nil
	}
	x.nGrant++
	x.acquire(digest, involved, st, now)
	x.ring.Recordf("xvote", st.Seq+1, digest, "head=%s v=%d from=%s", st.Head, m.View, env.From)
	return x.sendAccept(inst, digest, st), nil
}

// maybeReleaseDeadCommit clears a pinned commit whose agreed parent for our
// cluster no longer matches our chain head. Heads only move forward, so no
// correct node of our cluster can ever endorse that hash list again: the
// old attempt is dead and holding its slot vote would wedge the node.
func (x *xbyz) maybeReleaseDeadCommit(inst *xinst, digest types.Hash, st chainStatus) {
	if !inst.sentCommit {
		return
	}
	slot := inst.slotOf(x.cluster)
	if slot < 0 || slot >= len(inst.committedHashes) {
		return
	}
	if inst.committedHashes[slot] == st.Head {
		return
	}
	inst.sentCommit = false
	inst.sentAccept = false
	inst.committedHashes = nil
	inst.commitEnv = nil
	x.unlock(digest)
}

func (x *xbyz) sendAccept(inst *xinst, digest types.Hash, st chainStatus) []consensus.Outbound {
	if inst.sentAccept {
		return nil
	}
	inst.sentAccept = true
	valid := validBits(inst.txs, x.validate)
	inst.accepts.Add(x.cluster, x.self, consensus.HashVote{
		Key:   consensus.VoteKey{View: inst.view, Digest: digest},
		Prev:  st.Head,
		Valid: valid,
	})
	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     digest,
		Cluster:    x.cluster,
		PrevHashes: []types.Hash{st.Head},
		Seq:        valid, // per-transaction validity bitmap
	}
	payload := m.Encode(nil)
	return []consensus.Outbound{{
		To: othersOf(x.topo.InvolvedNodes(inst.involved), x.self),
		Env: &types.Envelope{Type: types.MsgXAccept, From: x.self,
			Payload: payload, Sig: x.signer.Sign(payload)},
	}}
}

// onAccept (lines 12–14): on 2f+1 matching accepts from every involved
// cluster, assemble the hash list and multicast a signed COMMIT.
func (x *xbyz) onAccept(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || len(m.PrevHashes) != 1 || x.decided[m.Digest] {
		return nil, nil
	}
	senderCluster, ok := x.topo.ClusterOf(env.From)
	if !ok {
		return nil, nil
	}
	inst := x.getInstance(m.Digest)
	inst.accepts.Add(senderCluster, env.From, consensus.HashVote{
		Key:   consensus.VoteKey{View: m.View, Digest: m.Digest},
		Prev:  m.PrevHashes[0],
		Valid: m.Seq,
	})
	return x.maybeCommit(inst, m.Digest, now)
}

func (x *xbyz) maybeCommit(inst *xinst, digest types.Hash, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if len(inst.txs) == 0 || inst.sentCommit {
		return nil, x.maybeDecide(inst, digest)
	}
	// Guard: only nodes still holding the slot vote may vote in the commit
	// phase, so a withdrawn attempt can never resurrect after its votes were
	// released.
	if !x.table.Holds(digest) {
		return nil, x.maybeDecide(inst, digest)
	}
	acceptKey := consensus.VoteKey{View: inst.view, Digest: digest}
	hashes, valid, ok := inst.accepts.QuorumAllPrev(inst.involved, acceptKey,
		func(c types.ClusterID) int { return x.topo.CrossQuorum(c) })
	if !ok {
		// Vote split across chain heads: if we are the initiator, launch
		// the next attempt immediately (see xcrash for the rationale), at
		// most once per timer window.
		if lead, isLead := x.leads[digest]; isLead && !lead.dormant && !lead.fastRetried {
			for _, c := range inst.involved {
				if inst.accepts.MatchImpossible(c, acceptKey, x.topo.CrossQuorum(c), len(x.topo.Members(c))) {
					out := x.propose(lead, digest, now)
					lead.fastRetried = true
					return out, nil
				}
			}
		}
		return nil, nil
	}
	// Guard: the agreed parent for our own cluster must still be our head.
	mySlot := inst.slotOf(x.cluster)
	if mySlot < 0 || hashes[mySlot] != x.status().Head {
		return nil, nil
	}
	inst.sentCommit = true
	x.tracer.StampDigest(digest, obs.StagePrepared, now)
	x.ring.Recordf("xcommit", 0, digest, "v=%d", inst.view)
	inst.committedHashes = hashes
	key := commitKey(digest, hashes, valid)
	inst.keyHashes[key] = keyedHashes{hashes: hashes, valid: valid}
	inst.commits.Add(x.cluster, x.self, key)

	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     digest,
		Cluster:    x.cluster,
		PrevHashes: hashes,
		Txs:        inst.txs,
		Seq:        valid, // aggregated validity bitmap
	}
	payload := m.Encode(nil)
	env := &types.Envelope{Type: types.MsgXCommit, From: x.self,
		Payload: payload, Sig: x.signer.Sign(payload)}
	inst.commitEnv = env
	out := []consensus.Outbound{{
		To:  othersOf(x.topo.InvolvedNodes(inst.involved), x.self),
		Env: env,
	}}
	return out, x.maybeDecide(inst, digest)
}

// onCommit (lines 15–16): on 2f+1 matching commits from every involved
// cluster, execute and append.
func (x *xbyz) onCommit(env *types.Envelope) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || x.decided[m.Digest] {
		return nil, nil
	}
	senderCluster, ok := x.topo.ClusterOf(env.From)
	if !ok {
		return nil, nil
	}
	inst := x.getInstance(m.Digest)
	if len(inst.txs) == 0 && len(m.Txs) > 0 && types.BatchDigest(m.Txs) == m.Digest {
		if involved, ok := batchInvolved(m.Txs); ok {
			inst.txs = m.Txs
			inst.involved = involved
		}
	}
	key := commitKey(m.Digest, m.PrevHashes, m.Seq)
	inst.keyHashes[key] = keyedHashes{hashes: m.PrevHashes, valid: m.Seq}
	inst.commits.Add(senderCluster, env.From, key)
	return nil, x.maybeDecide(inst, m.Digest)
}

func (x *xbyz) maybeDecide(inst *xinst, digest types.Hash) []crossDecision {
	if len(inst.txs) == 0 || x.decided[digest] {
		return nil
	}
	for key, kh := range inst.keyHashes {
		if !inst.commits.QuorumAll(inst.involved, key,
			func(c types.ClusterID) int { return x.topo.CrossQuorum(c) }) {
			continue
		}
		x.decided[digest] = true
		x.nDecide++
		x.ring.Recordf("xdecide", 0, digest, "")
		x.unlock(digest)
		x.unpark(digest)
		txs := inst.txs
		delete(x.instances, digest)
		delete(x.leads, digest)
		x.table.DropLead(digest)
		return []crossDecision{{Txs: txs, Digest: digest, Hashes: kh.hashes, Valid: kh.valid}}
	}
	return nil
}

// keyedHashes pairs a commit key's hash list with its validity bitmap.
type keyedHashes struct {
	hashes []types.Hash
	valid  uint64
}

// onAbort releases the slot vote held for the digest, unless this node
// already entered the commit phase (the decision may be in flight
// cluster-wide). Only the attempt's proposer is honored.
func (x *xbyz) onAbort(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || x.decided[m.Digest] {
		return nil, nil
	}
	inst, ok := x.instances[m.Digest]
	if !ok || inst.proposer != env.From || inst.sentCommit {
		return nil, nil
	}
	x.ring.Recordf("xabort", 0, m.Digest, "v=%d from=%s", m.View, env.From)
	x.unpark(m.Digest)
	x.unlock(m.Digest)
	return x.drainAndVote(now)
}

// OnChainAdvanced retries parked proposals and deferred lead accepts.
func (x *xbyz) OnChainAdvanced(now time.Time) ([]consensus.Outbound, []crossDecision) {
	x.voidStaleSelfVote()
	return x.drainAndVote(now)
}

// voidStaleSelfVote re-opens the initiator's accept for a lead whose promised
// chain slot another block has just filled (see xcrash.voidStaleSelfVote).
// Here the accept was multicast, so the next one replaces it at every
// receiver; a second accept for one (view, digest) at a new chain head is
// what an honest node also sends after a lock expiry, and is not slashable.
// A node that has entered the commit phase keeps its vote.
func (x *xbyz) voidStaleSelfVote() {
	d, held := x.table.Holder()
	if !held {
		return
	}
	lead, inst := x.leads[d], x.instances[d]
	if lead == nil || lead.dormant || inst == nil || !inst.sentAccept || inst.sentCommit {
		return
	}
	if slot, _ := x.table.ReservedSlot(); slot <= x.status().Seq {
		x.ring.Recordf("xstale", slot, d, "v=%d", inst.view)
		inst.sentAccept = false
		inst.needAccept = true
	}
}

func (x *xbyz) drainAndVote(now time.Time) ([]consensus.Outbound, []crossDecision) {
	// Self-votes before foreign grants (see xcrash.OnChainAdvanced): the
	// home lock of an in-flight lead outranks parked foreign proposals to
	// keep lock acquisition lowest-cluster-first.
	outs, decs := x.castSelfVotes(now)
	o2, d2 := x.drainWaiting(now)
	return append(outs, o2...), append(decs, d2...)
}

func (x *xbyz) drainWaiting(now time.Time) ([]consensus.Outbound, []crossDecision) {
	if len(x.waiting) == 0 || x.table.Held() {
		x.compactWaitOrder()
		return nil, nil
	}
	if !x.status().Drained {
		// No parked proposal can be granted on an undrained chain (see
		// xcrash.drainWaiting).
		return nil, nil
	}
	pending := make([]types.Hash, len(x.waitOrder))
	copy(pending, x.waitOrder)
	var outs []consensus.Outbound
	var decs []crossDecision
	for _, dg := range pending {
		env, ok := x.waiting[dg]
		if !ok {
			continue
		}
		o, d := x.onPropose(env, now)
		outs = append(outs, o...)
		decs = append(decs, d...)
		if x.table.Held() {
			break
		}
	}
	x.compactWaitOrder()
	return outs, decs
}

func (x *xbyz) compactWaitOrder() {
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

// Tick expires slot votes (crashed-initiator fallback) and drives the
// withdraw / backoff / re-propose cycle.
func (x *xbyz) Tick(now time.Time) ([]consensus.Outbound, []crossDecision) {
	var outs []consensus.Outbound
	if _, ok := x.table.ExpireHolder(now); ok {
		x.nLockExpire++
	}
	st := x.status()
	for digest, inst := range x.instances {
		if inst.sentCommit {
			x.maybeReleaseDeadCommit(inst, digest, st)
		}
	}
	for digest, lead := range x.leads {
		if x.decided[digest] || !now.After(lead.deadline) {
			continue
		}
		if lead.dormant {
			if x.table.CanVote(digest) && x.status().Drained {
				outs = append(outs, x.propose(lead, digest, now)...)
			} else {
				lead.deadline = now.Add(x.retryTimeout)
			}
			continue
		}
		if lead.attempts >= maxCrossAttempts {
			outs = append(outs, x.withdraw(lead, digest, now)...)
			delete(x.leads, digest)
			x.table.DropLead(digest)
			continue
		}
		outs = append(outs, x.withdraw(lead, digest, now)...)
		// Withdraw same-set followers together (see xcrash.Tick).
		for dg2, l2 := range x.leads {
			if dg2 != digest && !l2.dormant && !x.decided[dg2] && l2.involved.Equal(lead.involved) {
				outs = append(outs, x.withdraw(l2, dg2, now)...)
			}
		}
	}
	o, d := x.drainAndVote(now)
	return append(outs, o...), d
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
