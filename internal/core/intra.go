// Package core implements SharPer itself (§2–§3): the node runtime that
// glues a cluster's intra-shard consensus engine (Paxos or PBFT, pluggable
// per §3.1) to the flattened cross-shard consensus engine (cross.go: one
// instance lifecycle with a crash vote policy for Algorithm 1 and a
// Byzantine one for Algorithm 2), the per-cluster DAG ledger view, the
// sharded account store, and the simulated network.
package core

import (
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/paxos"
	"sharper/internal/pbft"
	"sharper/internal/types"
)

// IntraEngine is the pluggable intra-shard consensus engine of §3.1. Both
// Paxos and PBFT engines satisfy it; any other crash or Byzantine
// fault-tolerant protocol could be slotted in.
type IntraEngine interface {
	// Propose starts consensus on a batch of transactions; only the current
	// primary acts. The batch occupies a single consensus instance.
	Propose(txs []*types.Transaction, now time.Time) ([]consensus.Outbound, uint64)
	// Step consumes a protocol message.
	Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision)
	// Tick fires protocol timers (view change) and retries parked
	// proposals whose slot reservation cleared; a retried proposal whose
	// commit already arrived delivers, so Tick can surface decisions.
	Tick(now time.Time) ([]consensus.Outbound, []consensus.Decision)
	// SyncChainHead advances the engine past an externally decided block
	// (a cross-shard block committed by the flattened protocol), returning
	// messages and decisions from replaying parked proposals plus the
	// node's own orphaned transactions (in-flight proposals killed by the
	// new block) so the runtime can re-propose them. Decisions MUST be
	// applied by the caller: dropping one leaves the engine's committed
	// state ahead of the ledger, the desync behind the intra/cross fork
	// class (an erased acceptance lets a node double-vote a chain slot).
	SyncChainHead(seq uint64, head types.Hash, now time.Time) ([]consensus.Outbound, []consensus.Decision, []*types.Transaction)
	// ProposedHead returns the seq/hash of the latest proposed block.
	ProposedHead() (uint64, types.Hash)
	// HasUncommitted reports whether any consensus instance with a known
	// body sits above the committed head — including values retained from a
	// deposed view, which may hold a commit quorum elsewhere. The flattened
	// protocol must not vote while one exists, or a cross-shard block could
	// take a slot an intra-shard value already committed into.
	HasUncommitted() bool
	// View returns the engine's current view.
	View() uint64
	// Primary returns the current primary of the cluster.
	Primary() types.NodeID
	// IsPrimary reports whether this node currently leads.
	IsPrimary() bool
	// SuspectPrimary votes to depose the primary after a client request
	// went unexecuted past its timeout.
	SuspectPrimary(now time.Time) []consensus.Outbound
	// Restore warms a freshly built engine from recovered durable state:
	// view position plus accepted-but-uncommitted instances. Called once,
	// after SyncChainHead advanced the engine to the recovered chain head.
	Restore(view, promised uint64, insts []consensus.DurableInstance, now time.Time)
	// DurableState reports the engine state a checkpoint must carry into a
	// fresh log segment: view position and uncommitted acceptances.
	DurableState() (view, promised uint64, insts []consensus.DurableInstance)
}

// chainStatus reports a node's local cluster-chain state to the cross-shard
// engine: the committed sequence/head and whether the chain is drained
// (no proposal is in flight above the committed head). The flattened
// protocol only votes on a drained chain so that all correct nodes of a
// cluster report the same h_j (§3.2).
type chainStatus struct {
	Seq     uint64
	Head    types.Hash
	Drained bool
}

// newIntraEngine builds the model-appropriate engine. reserved is the
// conflict-table eligibility check both engines consult at their vote
// boundary (a chain slot promised to a cross-shard vote takes no intra
// vote), so the §3.2 one-vote-per-slot rule holds even on internal replay
// paths that never cross the node's dispatch. eng (nil-safe) receives engine
// health metrics; onPrepared, when non-nil, fires once per own proposal at
// quorum (commit-quorum / prepared certificate) so the tracer can stamp it.
func newIntraEngine(model types.FailureModel, topo *consensus.Topology, cluster types.ClusterID,
	self types.NodeID, signer crypto.Signer, verifier crypto.Verifier,
	timeout time.Duration, genesis types.Hash, persist consensus.Persister,
	reserved func(seq uint64) bool, eng *obs.EngineMetrics, onPrepared func(seq uint64)) IntraEngine {
	if model == types.Byzantine {
		return pbft.New(pbft.Config{
			Topology: topo, Cluster: cluster, Self: self,
			Signer: signer, Verifier: verifier, Timeout: timeout, Persist: persist,
			Reserved: reserved, Obs: eng, OnPrepared: onPrepared,
		}, genesis)
	}
	return paxos.New(paxos.Config{
		Topology: topo, Cluster: cluster, Self: self, Timeout: timeout, Persist: persist,
		Reserved: reserved, Obs: eng, OnPrepared: onPrepared,
	}, genesis)
}

// crossDecision is a committed cross-shard batch: the block parents are
// Hashes (one per involved cluster, in involved-set order shared by every
// transaction of the batch).
type crossDecision struct {
	Txs    []*types.Transaction
	Digest types.Hash
	Hashes []types.Hash
	// Valid is the aggregated validation bitmap: bit i is set when every
	// involved cluster voted batch transaction i's local part valid.
	// Invalid transactions are appended to the ledger (they were ordered)
	// but not applied.
	Valid uint64
}

// Involved returns the involved-cluster set shared by the decided batch.
func (d *crossDecision) Involved() types.ClusterSet {
	if len(d.Txs) == 0 {
		return nil
	}
	return d.Txs[0].Involved
}

// batchInvolved returns the involved-cluster set shared by every transaction
// of the batch, or false when the batch is empty or mixes sets — malformed
// proposals are dropped at the protocol boundary.
func batchInvolved(txs []*types.Transaction) (types.ClusterSet, bool) {
	if len(txs) == 0 || len(txs) > 64 {
		return nil, false
	}
	inv := txs[0].Involved
	for _, tx := range txs[1:] {
		if !tx.Involved.Equal(inv) {
			return nil, false
		}
	}
	return inv, true
}

// crossLeadDepth caps pipelined same-set cross-shard leads. Depth 2 keeps
// the next attempt's PROPOSE pre-positioned (parked) at every participant so
// the hand-off after a commit costs zero hops, while deeper pipelines only
// add parked-proposal rescans and lead bookkeeping — the per-chain commit
// cadence is one block per accept/commit ping-pong regardless of depth.
const crossLeadDepth = 2

// validBits evaluates validate over the batch and packs the verdicts into
// the per-transaction validity bitmap (bit i = transaction i valid).
func validBits(txs []*types.Transaction, validate func(*types.Transaction) bool) uint64 {
	var bits uint64
	for i, tx := range txs {
		if validate(tx) {
			bits |= 1 << uint(i)
		}
	}
	return bits
}
