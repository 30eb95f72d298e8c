package ordering

import (
	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/types"
)

// byz is the policy of Fig. 3b over nodes of which f may lie: the primary
// multicasts its proposal (PBFT's PRE-PREPARE), every node multicasts a vote
// (PREPARE), a node holding n−f matching votes (its own among them; 2f+1 of
// 3f+1) is prepared and multicasts COMMIT, and n−f matching commits
// decide. Every message is signed (§2.1) and nothing a single node says is
// believed: a view change is joined at f+1 votes (one of them is honest), a
// value is recovered only with its prepared certificate, and the catch-up
// barrier is a commit level f+1 nodes report (one of them is honest).
type byz struct {
	signer crypto.Signer
	verify crypto.Verifier
}

func (byz) joinAt(f int) int             { return f + 1 }
func (byz) barrierRank(f int) int        { return f }
func (b byz) sign(payload []byte) []byte { return b.signer.Sign(payload) }

// authentic checks the envelope's protocol-level signature, preferring the
// verdict the parallel verification pool already computed (see
// crypto.VerifyPool); envelopes stepped in directly (tests, replay paths)
// carry no verdict and are verified inline.
func (b byz) authentic(env *types.Envelope) bool {
	if ok, known := env.Auth(); known {
		return ok
	}
	return b.verify.Verify(env.From, env.Payload, env.Sig)
}

// admits takes proposals of the current view only — a view is entered
// through a NEW-VIEW backed by n−f votes, never on a primary's say-so —
// and re-derives the digest, which a malicious primary may have detached
// from the batch (any tampered transaction changes it).
func (byz) admits(view uint64, m *types.ConsensusMsg, body *types.Block) bool {
	return m.View == view && m.Digest == body.BatchDigest()
}

// votePayload is the one canonical encoding prepare and commit votes share.
// It names the parent the vote extends: a slot re-bound after a cross-shard
// SyncChainHead is legitimately re-voted with a different digest, and only
// the parent distinguishes that from equivocation — both for the slasher
// and for anyone verifying a vote offline.
func votePayload(cluster types.ClusterID, view, seq uint64, digest, parent types.Hash) []byte {
	m := &types.ConsensusMsg{View: view, Seq: seq, Digest: digest, Cluster: cluster,
		PrevHashes: []types.Hash{parent}}
	return m.Encode(nil)
}

// heard returns the instance's vote tables, allocated on first use.
func heard(inst *instance) *votes {
	if inst.prepares == nil {
		inst.prepares = make(map[types.NodeID]types.Hash)
		inst.commits = make(map[types.NodeID]types.Hash)
		inst.sigs = make(map[types.NodeID][]byte)
	}
	return &inst.votes
}

// castVote multicasts this node's vote — the primary's like everyone
// else's — once per binding, and records it with its signature.
func castVote(e *Engine, inst *instance, seq uint64) []consensus.Outbound {
	v := heard(inst)
	if v.voted {
		return nil
	}
	v.voted = true
	v.prepares[e.self] = inst.digest
	o := e.multicast(types.MsgVote, votePayload(e.cluster, inst.view, seq, inst.digest, inst.parent))
	v.sigs[e.self] = o.Env.Sig
	return []consensus.Outbound{o}
}

// vote multicasts this node's PREPARE and moves the instance on with it.
func (b byz) vote(e *Engine, inst *instance, seq uint64, _ types.NodeID) []consensus.Outbound {
	out := castVote(e, inst, seq)
	return append(out, b.progress(e, inst, seq)...)
}

func (b byz) onVote(e *Engine, env *types.Envelope, m *types.ConsensusMsg) ([]consensus.Outbound, []consensus.Decision) {
	switch {
	case env.Type == types.MsgVote && m.View == e.view && m.View >= e.promised:
		// A prepare counts in its own view only.
	case env.Type == types.MsgCommit && m.View >= e.promised:
		// A commit certificate stands whichever view it formed in.
	default:
		return nil, nil
	}
	if e.straggler(m.Seq) {
		return nil, nil
	}
	inst := e.instanceAt(m.Seq)
	v := heard(inst)
	if env.Type == types.MsgVote {
		v.prepares[env.From] = m.Digest
		v.sigs[env.From] = env.Sig
	} else {
		v.commits[env.From] = m.Digest
		if _, ok := v.sigs[env.From]; !ok {
			v.sigs[env.From] = env.Sig
		}
		if !inst.bound() && !inst.committed && countMatching(v.commits, m.Digest) >= e.quorum {
			// A full commit certificate binds the slot before its body
			// arrives: remember the value, deliver when the proposal does.
			inst.digest, inst.committed = m.Digest, true
		}
	}
	out := b.progress(e, inst, m.Seq)
	return out, e.advance()
}

// progress moves a bound instance through prepared → committed as vote
// quorums fill in, tolerating any message arrival order.
func (byz) progress(e *Engine, inst *instance, seq uint64) []consensus.Outbound {
	if !inst.bound() {
		return nil
	}
	var out []consensus.Outbound
	// Prepared: n−f matching prepares, our own among them (§3.1) — our own
	// because it is the vote that was persisted before it left.
	if inst.voted && !inst.sentCommit && countMatching(inst.prepares, inst.digest) >= e.quorum {
		inst.sentCommit = true
		inst.commits[e.self] = inst.digest
		e.ring.Recordf("prepared", seq, inst.digest, "v=%d", inst.view)
		e.reachedQuorum(seq, inst)
		out = append(out, e.multicast(types.MsgCommit, votePayload(e.cluster, inst.view, seq, inst.digest, inst.parent)))
	}
	if !inst.committed && countMatching(inst.commits, inst.digest) >= e.quorum {
		inst.committed = true
	}
	return out
}

// certify reports an instance only with its prepared certificate: n−f
// recorded prepare or commit votes matching the instance's digest, each with
// its signature.
func (byz) certify(e *Engine, inst *instance, p *types.PreparedInstance) bool {
	seen := make(map[types.NodeID]bool)
	for _, phase := range []map[types.NodeID]types.Hash{inst.prepares, inst.commits} {
		for id, d := range phase {
			if d == inst.digest && !seen[id] {
				seen[id] = true
				p.Proof = append(p.Proof, types.VoteProof{Node: id, Sig: inst.sigs[id]})
			}
		}
	}
	p.Parent = inst.parent
	return len(p.Proof) >= e.quorum
}

// recovers believes a reported value only if its certificate carries n−f
// distinct cluster members' valid signatures over the canonical vote
// payload. One honest reporter then suffices (a commit anywhere implies f+1
// honest certificate holders, and any n−f view-change quorum intersects
// them) while no coalition of f liars can fabricate a binding.
func (b byz) recovers(e *Engine, p *types.PreparedInstance) bool {
	payload := votePayload(e.cluster, p.View, p.Seq, p.Digest, p.Parent)
	valid := make(map[types.NodeID]bool)
	for _, pr := range p.Proof {
		if c, ok := e.topo.ClusterOf(pr.Node); !ok || c != e.cluster || valid[pr.Node] || !b.verify.Verify(pr.Node, payload, pr.Sig) {
			continue
		}
		valid[pr.Node] = true
		if len(valid) >= e.quorum {
			return true
		}
	}
	return false
}

func countMatching(votes map[types.NodeID]types.Hash, digest types.Hash) int {
	n := 0
	for _, d := range votes {
		if d == digest {
			n++
		}
	}
	return n
}
