package ordering

import (
	"sharper/internal/consensus"
	"sharper/internal/types"
)

// crash is the policy of Fig. 3a over nodes that fail only by stopping: the
// primary multicasts its proposal (Paxos's ACCEPT), each backup answers with
// a vote (ACCEPTED) to the primary alone, and the primary, on n−f matching
// votes counting its own (f+1 of 2f+1), decides and multicasts COMMIT.
// Nodes never lie, so nothing is signed, one view-change vote is reason
// enough to join, and every reported value is believed.
type crash struct{}

func (crash) joinAt(int) int                                 { return 1 }
func (crash) barrierRank(int) int                            { return 0 }
func (crash) sign([]byte) []byte                             { return nil }
func (crash) authentic(*types.Envelope) bool                 { return true }
func (crash) recovers(*Engine, *types.PreparedInstance) bool { return true }

// admits takes a proposal from the current view or a later one: a later
// view's primary was elected by a quorum this node merely missed, and its
// proposal installs that view here.
func (crash) admits(view uint64, m *types.ConsensusMsg, _ *types.Block) bool { return m.View >= view }

// certify reports every bound instance: an honest node's word that it
// accepted a value is proof enough, and any value that reached n−f
// acceptances was accepted by a member of every view-change quorum.
func (crash) certify(*Engine, *instance, *types.PreparedInstance) bool { return true }

func (crash) vote(e *Engine, inst *instance, seq uint64, proposer types.NodeID) []consensus.Outbound {
	if proposer == e.self {
		inst.accepted = map[types.NodeID]bool{e.self: true} // the primary counts itself
		return nil
	}
	reply := &types.ConsensusMsg{View: inst.view, Seq: seq, Digest: inst.digest, Cluster: e.cluster}
	return []consensus.Outbound{{
		To:  []types.NodeID{proposer},
		Env: &types.Envelope{Type: types.MsgVote, From: e.self, Payload: reply.Encode(nil)},
	}}
}

func (c crash) onVote(e *Engine, env *types.Envelope, m *types.ConsensusMsg) ([]consensus.Outbound, []consensus.Decision) {
	switch env.Type {
	case types.MsgVote:
		return c.onAccepted(e, env.From, m)
	case types.MsgCommit:
		return nil, c.onCommit(e, env.From, m)
	}
	return nil, nil
}

func (crash) onAccepted(e *Engine, from types.NodeID, m *types.ConsensusMsg) ([]consensus.Outbound, []consensus.Decision) {
	inst, ok := e.instances[m.Seq]
	if !ok || inst.view != m.View || inst.digest != m.Digest || inst.sentCommit {
		return nil, nil
	}
	if !e.IsPrimary() || e.viewChanging || m.View < e.promised {
		// A primary that joined a view change has promised not to commit in
		// the old view: late accepteds must not complete its quorums.
		return nil, nil
	}
	if inst.accepted == nil {
		inst.accepted = make(map[types.NodeID]bool)
	}
	inst.accepted[from] = true
	if len(inst.accepted) < e.quorum {
		return nil, nil
	}
	// Quorum: multicast commit and decide locally.
	inst.sentCommit = true
	inst.committed = true
	e.ring.Recordf("commit-quorum", m.Seq, inst.digest, "v=%d acc=%d", inst.view, len(inst.accepted))
	e.reachedQuorum(m.Seq, inst)
	cm := &types.ConsensusMsg{View: inst.view, Seq: m.Seq, Digest: inst.digest, Cluster: e.cluster}
	return []consensus.Outbound{e.multicast(types.MsgCommit, cm.Encode(nil))}, e.advance()
}

func (crash) onCommit(e *Engine, from types.NodeID, m *types.ConsensusMsg) []consensus.Decision {
	if from != e.topo.Primary(e.cluster, m.View) || e.straggler(m.Seq) {
		return nil
	}
	// A commit that raced ahead of its accept is remembered on an unbound
	// instance and delivers when the accept arrives.
	inst := e.instanceAt(m.Seq)
	if inst.digest.IsZero() {
		inst.digest = m.Digest
	}
	if inst.digest != m.Digest {
		// A stale commit from a deposed view must not commit the slot's new
		// binding (nor may a buffered commit accept a different body later).
		return nil
	}
	inst.committed = true
	e.ring.Recordf("commit-msg", m.Seq, m.Digest, "v=%d from=%s", m.View, from)
	return e.advance()
}
