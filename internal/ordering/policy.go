package ordering

import (
	"sharper/internal/consensus"
	"sharper/internal/types"
)

// policy is everything that differs between the crash protocol (Fig. 3a)
// and the Byzantine one (Fig. 3b). The Engine owns the slot log and calls
// the policy at the points where the paper's two figures part ways; a policy
// keeps no state of its own beyond its keys — what it hears for a slot lives
// in that instance's votes.
type policy interface {
	// proposal is the message type that carries the primary's proposal.
	proposal() types.MsgType
	// quorum is the number of matching votes that decides a slot, and of
	// view-change votes that installs a view, in a cluster tolerating f
	// faults.
	quorum(f int) int
	// joinAt is the number of view-change votes for one view after which a
	// node that has not suspected the primary itself votes for it too.
	joinAt(f int) int
	// barrierRank picks the commit level a new primary must reach before
	// proposing: the reported LastSeq of this rank, 0 being the highest.
	barrierRank(f int) int
	// sign authenticates an outgoing payload; nil means unsigned.
	sign(payload []byte) []byte
	// authentic reports whether an incoming envelope is from who it claims.
	authentic(env *types.Envelope) bool
	// admits reports whether a well-formed proposal from its view's primary
	// may be considered at all by a node in the given view: which views, and
	// whether the primary is trusted to have derived the digest from body.
	admits(view uint64, m *types.ConsensusMsg, body *types.Block) bool
	// vote casts this node's vote for the value just bound to inst (proposed
	// by proposer, possibly this node) and returns the messages carrying it,
	// together with anything the vote completes.
	vote(e *Engine, inst *instance, seq uint64, proposer types.NodeID) []consensus.Outbound
	// onVote consumes a decoded message of one of the policy's vote phases
	// (and ignores any other type).
	onVote(e *Engine, env *types.Envelope, m *types.ConsensusMsg) ([]consensus.Outbound, []consensus.Decision)
	// certify reports whether this node may report inst to a view change as
	// a value the deposed view owes the chain, adding to p whatever proof
	// the receiver will ask for.
	certify(e *Engine, inst *instance, p *types.PreparedInstance) bool
	// recovers reports whether a new primary believes a reported value.
	recovers(e *Engine, p *types.PreparedInstance) bool
}

// votes is what an instance has heard and said, under whichever policy runs
// the engine; the other policy's fields stay nil and cost nothing. It is
// reset as a whole when a slot is re-bound in a new view.
type votes struct {
	// voted: this node's own vote for the binding has been sent (byz: the
	// PREPARE; the crash policy re-acknowledges every delivery instead).
	voted bool
	// sentCommit: this node has sent the slot's COMMIT (crash: the primary's
	// decision; byz: this node's commit vote).
	sentCommit bool

	// crash: the acceptors the primary has heard from, itself included.
	accepted map[types.NodeID]bool

	// byz: the digest each node voted for in each phase, and each node's
	// signature over its vote payload (prepare and commit votes share one
	// canonical encoding), so a view change can carry a verifiable prepared
	// certificate instead of an unproven claim.
	prepares map[types.NodeID]types.Hash
	commits  map[types.NodeID]types.Hash
	sigs     map[types.NodeID][]byte
}
