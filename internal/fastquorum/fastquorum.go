// Package fastquorum implements the two-phase "fast" replication engines
// the paper benchmarks against (§4, §5): protocols that spend extra
// replicas to drop one communication phase. Fast Paxos [34] reaches crash
// consensus over 3f+1 nodes in two steps (propose, accept) instead of
// Paxos's three, and FaB [40] reaches Byzantine consensus over 5f+1 nodes
// in two steps instead of PBFT's three.
//
// The engine is leader-based: the primary multicasts a proposal and every
// node multicasts an accept; a node decides once it has Q matching accepts,
// where Q = 2f+1 of 3f+1 (Fast Paxos) or 4f+1 of 5f+1 (FaB). Both variants
// share this skeleton and differ only in group size, quorum, and signing.
package fastquorum

import (
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// Config parametrizes the engine.
type Config struct {
	Topology *consensus.Topology
	Cluster  types.ClusterID
	Self     types.NodeID
	// Quorum is the number of matching accepts (including the node's own)
	// required to decide.
	Quorum int
	// Sign enables signatures on every message (FaB).
	Sign     bool
	Signer   crypto.Signer
	Verifier crypto.Verifier
	// Timeout before a backup suspects the primary.
	Timeout time.Duration
	// Obs, when non-nil, receives engine health metrics (view changes,
	// straggler drops, live instance count).
	Obs *obs.EngineMetrics
}

// Engine is one node's state. It satisfies the replica.Engine interface.
type Engine struct {
	cfg  Config
	view uint64

	proposedSeq  uint64
	proposedHead types.Hash

	committedSeq  uint64
	committedHead types.Hash

	instances map[uint64]*instance
	delivered map[uint64]bool

	vcVotes      map[uint64]map[types.NodeID]*types.ViewChange
	viewChanging bool
}

type instance struct {
	digest     types.Hash
	parent     types.Hash
	txs        []*types.Transaction
	view       uint64
	accepts    map[types.NodeID]types.Hash
	sentAccept bool
	committed  bool
	deadline   time.Time
}

// New creates an engine at view 0.
func New(cfg Config, genesis types.Hash) *Engine {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.Signer == nil {
		cfg.Signer = crypto.NoopSigner{}
	}
	if cfg.Verifier == nil {
		cfg.Verifier = crypto.NoopSigner{}
	}
	return &Engine{
		cfg:           cfg,
		proposedHead:  genesis,
		committedHead: genesis,
		instances:     make(map[uint64]*instance),
		delivered:     make(map[uint64]bool),
		vcVotes:       make(map[uint64]map[types.NodeID]*types.ViewChange),
	}
}

// View returns the current view.
func (e *Engine) View() uint64 { return e.view }

// Primary returns the current primary.
func (e *Engine) Primary() types.NodeID { return e.cfg.Topology.Primary(e.cfg.Cluster, e.view) }

// IsPrimary reports whether this node leads the current view.
func (e *Engine) IsPrimary() bool { return e.Primary() == e.cfg.Self }

func (e *Engine) members() []types.NodeID { return e.cfg.Topology.Members(e.cfg.Cluster) }

func (e *Engine) sign(p []byte) []byte {
	if !e.cfg.Sign {
		return nil
	}
	return e.cfg.Signer.Sign(p)
}

func (e *Engine) authentic(env *types.Envelope) bool {
	if !e.cfg.Sign {
		return true
	}
	if ok, known := env.Auth(); known {
		return ok // verdict precomputed by the parallel verification pool
	}
	return e.cfg.Verifier.Verify(env.From, env.Payload, env.Sig)
}

// Propose starts consensus on a batch of transactions (primary only).
func (e *Engine) Propose(txs []*types.Transaction, now time.Time) ([]consensus.Outbound, uint64) {
	if !e.IsPrimary() || e.viewChanging || len(txs) == 0 {
		return nil, 0
	}
	seq := e.proposedSeq + 1
	parent := e.proposedHead
	block := &types.Block{Txs: txs, Parents: []types.Hash{parent}}
	digest := types.BatchDigest(txs)

	inst := e.getInstance(seq)
	inst.digest = digest
	inst.parent = parent
	inst.txs = txs
	inst.view = e.view
	inst.deadline = now.Add(e.cfg.Timeout)
	e.proposedSeq = seq
	e.proposedHead = block.Hash()

	msg := &types.ConsensusMsg{
		View: e.view, Seq: seq, Digest: digest, Cluster: e.cfg.Cluster,
		PrevHashes: []types.Hash{parent}, Txs: txs,
	}
	payload := msg.Encode(nil)
	out := []consensus.Outbound{{
		To:  others(e.members(), e.cfg.Self),
		Env: &types.Envelope{Type: types.MsgFastPropose, From: e.cfg.Self, Payload: payload, Sig: e.sign(payload)},
	}}
	out = append(out, e.voteAccept(inst, seq)...)
	return out, seq
}

func (e *Engine) getInstance(seq uint64) *instance {
	inst, ok := e.instances[seq]
	if !ok {
		inst = &instance{accepts: make(map[types.NodeID]types.Hash)}
		e.instances[seq] = inst
	}
	return inst
}

// Step consumes one protocol message.
func (e *Engine) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	if !e.authentic(env) {
		return nil, nil
	}
	switch env.Type {
	case types.MsgFastPropose:
		return e.onPropose(env, now)
	case types.MsgFastAccept:
		return e.onAccept(env)
	case types.MsgViewChange:
		return e.onViewChange(env)
	case types.MsgNewView:
		return e.onNewView(env)
	default:
		return nil, nil
	}
}

func (e *Engine) onPropose(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || len(m.Txs) == 0 || len(m.PrevHashes) != 1 {
		return nil, nil
	}
	if env.From != e.cfg.Topology.Primary(e.cfg.Cluster, m.View) || m.View != e.view {
		return nil, nil
	}
	if m.Digest != types.BatchDigest(m.Txs) {
		return nil, nil
	}
	if m.Seq <= e.committedSeq {
		// Delivered slot: a re-delivered proposal must not resurrect its
		// deleted instance (see ordering.Engine.straggler).
		e.cfg.Obs.Stragglers().Inc()
		return nil, nil
	}
	inst := e.getInstance(m.Seq)
	if len(inst.txs) == 0 {
		inst.digest = m.Digest
		inst.parent = m.PrevHashes[0]
		inst.txs = m.Txs
		inst.view = m.View
		inst.deadline = now.Add(e.cfg.Timeout)
	}
	if m.Seq > e.proposedSeq {
		e.proposedSeq = m.Seq
		block := &types.Block{Txs: m.Txs, Parents: []types.Hash{inst.parent}}
		e.proposedHead = block.Hash()
	}
	out := e.voteAccept(inst, m.Seq)
	return out, e.advanceFrom(inst, m.Seq)
}

func (e *Engine) voteAccept(inst *instance, seq uint64) []consensus.Outbound {
	if inst.sentAccept {
		return nil
	}
	inst.sentAccept = true
	inst.accepts[e.cfg.Self] = inst.digest
	m := &types.ConsensusMsg{View: inst.view, Seq: seq, Digest: inst.digest, Cluster: e.cfg.Cluster}
	payload := m.Encode(nil)
	return []consensus.Outbound{{
		To:  others(e.members(), e.cfg.Self),
		Env: &types.Envelope{Type: types.MsgFastAccept, From: e.cfg.Self, Payload: payload, Sig: e.sign(payload)},
	}}
}

func (e *Engine) onAccept(env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil, nil
	}
	if m.Seq <= e.committedSeq {
		e.cfg.Obs.Stragglers().Inc()
		return nil, nil // delivered slot; straggler vote (see ordering.Engine.straggler)
	}
	inst := e.getInstance(m.Seq)
	inst.accepts[env.From] = m.Digest
	return nil, e.advanceFrom(inst, m.Seq)
}

func (e *Engine) advanceFrom(inst *instance, seq uint64) []consensus.Decision {
	if len(inst.txs) > 0 && !inst.committed {
		n := 0
		for _, d := range inst.accepts {
			if d == inst.digest {
				n++
			}
		}
		if n >= e.cfg.Quorum {
			inst.committed = true
		}
	}
	var out []consensus.Decision
	for {
		next := e.committedSeq + 1
		in, ok := e.instances[next]
		if !ok || !in.committed || len(in.txs) == 0 || e.delivered[next] {
			return out
		}
		block := &types.Block{Txs: in.txs, Parents: []types.Hash{in.parent}}
		e.delivered[next] = true
		e.committedSeq = next
		e.committedHead = block.Hash()
		out = append(out, consensus.Decision{Block: block, Seq: next})
		delete(e.instances, next)
		e.cfg.Obs.InstGauge().Set(uint64(len(e.instances)))
	}
}

// Tick fires backup timers and triggers a view change on a stuck proposal.
func (e *Engine) Tick(now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	if e.IsPrimary() || e.viewChanging {
		return nil, nil
	}
	for seq, inst := range e.instances {
		if seq > e.committedSeq && len(inst.txs) > 0 && !inst.committed && now.After(inst.deadline) {
			return e.startViewChange(e.view + 1), nil
		}
	}
	return nil, nil
}

func (e *Engine) startViewChange(newView uint64) []consensus.Outbound {
	e.viewChanging = true
	vc := &types.ViewChange{NewView: newView, Cluster: e.cfg.Cluster,
		LastSeq: e.committedSeq, LastHash: e.committedHead}
	e.recordVC(e.cfg.Self, vc)
	payload := vc.Encode(nil)
	return []consensus.Outbound{{
		To:  others(e.members(), e.cfg.Self),
		Env: &types.Envelope{Type: types.MsgViewChange, From: e.cfg.Self, Payload: payload, Sig: e.sign(payload)},
	}}
}

func (e *Engine) recordVC(from types.NodeID, vc *types.ViewChange) {
	m, ok := e.vcVotes[vc.NewView]
	if !ok {
		m = make(map[types.NodeID]*types.ViewChange)
		e.vcVotes[vc.NewView] = m
	}
	m[from] = vc
}

func (e *Engine) onViewChange(env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	vc, err := types.DecodeViewChange(env.Payload)
	if err != nil || vc.NewView <= e.view || vc.Cluster != e.cfg.Cluster {
		return nil, nil
	}
	e.recordVC(env.From, vc)
	votes := e.vcVotes[vc.NewView]
	f := e.cfg.Topology.F(e.cfg.Cluster)

	var out []consensus.Outbound
	if !e.viewChanging && len(votes) >= f+1 {
		out = append(out, e.startViewChange(vc.NewView)...)
		votes = e.vcVotes[vc.NewView]
	}
	if e.cfg.Topology.Primary(e.cfg.Cluster, vc.NewView) != e.cfg.Self {
		return out, nil
	}
	if len(votes) < e.cfg.Quorum {
		return out, nil
	}
	nv := &types.ViewChange{NewView: vc.NewView, Cluster: e.cfg.Cluster,
		LastSeq: e.committedSeq, LastHash: e.committedHead}
	payload := nv.Encode(nil)
	out = append(out, consensus.Outbound{
		To:  others(e.members(), e.cfg.Self),
		Env: &types.Envelope{Type: types.MsgNewView, From: e.cfg.Self, Payload: payload, Sig: e.sign(payload)},
	})
	e.installView(vc.NewView)
	return out, nil
}

func (e *Engine) onNewView(env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	nv, err := types.DecodeViewChange(env.Payload)
	if err != nil || nv.NewView < e.view || nv.Cluster != e.cfg.Cluster {
		return nil, nil
	}
	if env.From != e.cfg.Topology.Primary(e.cfg.Cluster, nv.NewView) {
		return nil, nil
	}
	e.installView(nv.NewView)
	return nil, nil
}

func (e *Engine) installView(v uint64) {
	if v <= e.view {
		e.viewChanging = false
		return
	}
	e.view = v
	e.viewChanging = false
	e.cfg.Obs.VC().Inc()
	e.proposedSeq = e.committedSeq
	e.proposedHead = e.committedHead
	for seq, inst := range e.instances {
		if seq > e.committedSeq && !inst.committed {
			delete(e.instances, seq)
		}
	}
	e.cfg.Obs.InstGauge().Set(uint64(len(e.instances)))
}

func others(members []types.NodeID, self types.NodeID) []types.NodeID {
	out := make([]types.NodeID, 0, len(members)-1)
	for _, m := range members {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

// SuspectPrimary votes to depose the current primary. The runtime calls it
// when a forwarded client request goes unexecuted past its timeout — the
// PBFT rule that lets a cluster recover from a primary that fails while
// holding no in-flight proposals.
func (e *Engine) SuspectPrimary(now time.Time) []consensus.Outbound {
	if e.IsPrimary() || e.viewChanging {
		return nil
	}
	_ = now
	return e.startViewChange(e.view + 1)
}
