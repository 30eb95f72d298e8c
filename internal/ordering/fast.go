package ordering

import (
	"sharper/internal/consensus"
	"sharper/internal/types"
)

// fast is the two-phase policy of the §4 baselines: Fast Paxos [34] over
// 3f+1 crash-prone nodes and FaB [40] over 5f+1 Byzantine ones. They spend
// extra replicas to drop a phase: every member multicasts one vote for the
// primary's proposal, and n−f matching votes (2f+1 of 3f+1, 4f+1 of 5f+1)
// decide at whoever holds them — there is no commit phase.
//
// Everything else is the cluster model's policy, embedded: signing,
// admission and recovery. Unsigned, a view change believes every reported
// value, as under crash. Signed, it recovers a value only with n−f signed
// votes, PBFT's certificate rule; FaB's own rule for vouching for a value
// fewer nodes hold is not implemented (DESIGN.md, deviations).
type fast struct {
	policy // crash{} or byz{...}
}

// vote multicasts this node's vote and decides if it completes a quorum.
func (fast) vote(e *Engine, inst *instance, seq uint64, _ types.NodeID) []consensus.Outbound {
	out := castVote(e, inst, seq)
	decide(e, inst, seq)
	return out
}

// onVote counts a vote of the current view. A vote for a slot still bound
// by a deposed view is dropped: the new view's proposal re-binds the slot
// first, and votes of two views never add up to one quorum.
func (fast) onVote(e *Engine, env *types.Envelope, m *types.ConsensusMsg) ([]consensus.Outbound, []consensus.Decision) {
	if env.Type != types.MsgVote || m.View != e.view || m.View < e.promised || e.straggler(m.Seq) {
		return nil, nil
	}
	inst := e.instanceAt(m.Seq)
	if inst.view != m.View {
		if inst.bound() {
			return nil, nil
		}
		inst.votes, inst.view = votes{}, m.View // votes ahead of the proposal
	}
	v := heard(inst)
	v.prepares[env.From] = m.Digest
	v.sigs[env.From] = env.Sig
	decide(e, inst, m.Seq)
	return nil, e.advance()
}

// decide commits a bound instance once n−f votes match its digest.
func decide(e *Engine, inst *instance, seq uint64) {
	if !inst.bound() || inst.committed || countMatching(inst.prepares, inst.digest) < e.quorum {
		return
	}
	inst.committed = true
	e.ring.Recordf("fast-quorum", seq, inst.digest, "v=%d", inst.view)
	e.reachedQuorum(seq, inst)
}
