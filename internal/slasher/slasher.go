// Package slasher implements the equivocation-detecting auditor: it watches
// the consensus message stream of a replica, indexes every signed claim a
// node makes about a slot or its chain head, and when two claims conflict it
// bundles the two envelopes into a types.FraudProof — a self-contained
// accusation verifiable offline by any party holding the public keys.
//
// The detectors are deliberately scoped to claims an honest node can never
// make twice with different content, so a proof is damning by construction
// and the honest-run false-positive rate is zero:
//
//   - Slot claims: within one (view, seq, cluster, parent), every
//     proposal, vote and commit a node emits binds the same digest.
//     The engines guarantee this (one vote per instance, first-wins digest
//     binding, re-signed identically across crash-recovery), so indexing the
//     three message classes under one key also catches a primary whose
//     tampered proposal contradicts its own vote. The parent is part of
//     the key because it is part of an honest node's claim: a slot superseded
//     by a cross-shard SyncChainHead is legitimately re-proposed and re-voted
//     with a different digest — under a different parent. Votes carry the
//     parent on the wire (ConsensusMsg.PrevHashes) precisely so this
//     distinction survives into offline verification.
//   - Chain-head claims: a view-change message asserts "my chain at height
//     LastSeq ends in LastHash". The per-cluster chain is append-only and
//     survives restarts via the WAL, so one height has exactly one hash for
//     an honest node — across any number of view changes.
//
// Non-goals (documented in DESIGN.md): cross-shard XAccept grants are NOT
// slashed, because an honest participant legitimately re-grants the same
// (view, digest) with a different chain head after a lock expiry or an
// initiator withdrawal; and byte-identical rebroadcasts are always benign
// (the rules require differing content). A slasher audits a Byzantine
// cluster's messages only: a crash cluster's are unsigned, prove nothing,
// and share the ordering kinds, so the node runtime builds no slasher there.
package slasher

import (
	"sync"

	"sharper/internal/types"
)

// Config parameterizes a Slasher.
type Config struct {
	// Verifier checks envelope signatures before a claim is indexed, so a
	// forged envelope cannot plant evidence against an honest node. May be
	// nil when the fabric already authenticates (the slasher then trusts
	// envelopes whose pool verdict is unknown).
	Verifier types.SigVerifier
	// MaxEntries bounds each claim index; oldest entries are evicted FIFO.
	// Defaults to 16384.
	MaxEntries int
	// MaxProofs bounds retained fraud proofs. Defaults to 256.
	MaxProofs int
}

// voteKey identifies one slot claim. The message class (proposal / vote /
// commit) is intentionally absent: an honest node binds one digest
// per slot across all three. The parent IS present: re-binding a slot under
// a new parent after a cross-shard chain sync is honest behavior.
type voteKey struct {
	node    types.NodeID
	cluster types.ClusterID
	view    uint64
	seq     uint64
	parent  types.Hash
}

type voteRec struct {
	digest types.Hash
	env    *types.Envelope
}

// claimKey identifies one chain-head claim from view-change messages.
type claimKey struct {
	node    types.NodeID
	cluster types.ClusterID
	height  uint64
}

type claimRec struct {
	head types.Hash
	env  *types.Envelope
}

// Slasher is one replica's evidence index. Observe is called from the node's
// event loop; Proofs/Offenders may be read concurrently by audit tooling.
type Slasher struct {
	mu         sync.Mutex
	cfg        Config
	votes      map[voteKey]voteRec
	voteOrder  []voteKey
	claims     map[claimKey]claimRec
	claimOrder []claimKey
	proofs     []*types.FraudProof
	proofIdx   map[string]bool
	evicted    uint64
}

// New creates a Slasher.
func New(cfg Config) *Slasher {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1 << 14
	}
	if cfg.MaxProofs <= 0 {
		cfg.MaxProofs = 256
	}
	return &Slasher{
		cfg:      cfg,
		votes:    make(map[voteKey]voteRec),
		claims:   make(map[claimKey]claimRec),
		proofIdx: make(map[string]bool),
	}
}

// authentic reports whether env's signature can be relied on: the pool
// verdict if one exists, an inline check otherwise. Unverifiable envelopes
// are never indexed — evidence must be signed.
func (s *Slasher) authentic(env *types.Envelope) bool {
	if ok, known := env.Auth(); known {
		return ok
	}
	if s.cfg.Verifier != nil {
		return s.cfg.Verifier.Verify(env.From, env.Payload, env.Sig)
	}
	return true
}

// Observe feeds one inbound envelope through the detectors and returns any
// freshly minted fraud proofs (at most one today; a slice for future
// detectors). Re-observing the same envelope — the node runtime re-dispatches
// deferred messages — is harmless: identical claims never conflict, and
// proofs deduplicate on their locus.
func (s *Slasher) Observe(env *types.Envelope) []*types.FraudProof {
	switch env.Type {
	case types.MsgPropose, types.MsgVote, types.MsgCommit:
		m, err := types.DecodeConsensusMsg(env.Payload)
		if err != nil {
			return nil
		}
		if !s.authentic(env) {
			return nil
		}
		return s.observeSlot(env, m)
	case types.MsgViewChange:
		vc, err := types.DecodeViewChange(env.Payload)
		if err != nil {
			return nil
		}
		if !s.authentic(env) {
			return nil
		}
		return s.observeClaim(env, vc)
	default:
		return nil
	}
}

func (s *Slasher) observeSlot(env *types.Envelope, m *types.ConsensusMsg) []*types.FraudProof {
	if len(m.PrevHashes) == 0 {
		// A slot claim that names no parent is not self-contained evidence:
		// it cannot be told apart from an honest re-vote after a chain
		// re-bind, so it is never indexed (current engines always name one).
		return nil
	}
	key := voteKey{node: env.From, cluster: m.Cluster, view: m.View, seq: m.Seq,
		parent: m.PrevHashes[0]}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.votes[key]
	if !ok {
		if len(s.votes) >= s.cfg.MaxEntries {
			oldest := s.voteOrder[0]
			s.voteOrder = s.voteOrder[1:]
			delete(s.votes, oldest)
			s.evicted++
		}
		s.votes[key] = voteRec{digest: m.Digest, env: env}
		s.voteOrder = append(s.voteOrder, key)
		return nil
	}
	if prev.digest == m.Digest {
		return nil // consistent claim (or byte-identical replay): benign
	}
	kind := types.FraudDoubleVote
	if prev.env.Type == types.MsgPropose || env.Type == types.MsgPropose {
		kind = types.FraudDoubleProposal
	}
	p := &types.FraudProof{
		Offender: env.From, Cluster: m.Cluster, Kind: kind,
		View: m.View, Seq: m.Seq,
		First: prev.env, Second: env,
	}
	return s.emitLocked(p)
}

func (s *Slasher) observeClaim(env *types.Envelope, vc *types.ViewChange) []*types.FraudProof {
	key := claimKey{node: env.From, cluster: vc.Cluster, height: vc.LastSeq}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.claims[key]
	if !ok {
		if len(s.claims) >= s.cfg.MaxEntries {
			oldest := s.claimOrder[0]
			s.claimOrder = s.claimOrder[1:]
			delete(s.claims, oldest)
			s.evicted++
		}
		s.claims[key] = claimRec{head: vc.LastHash, env: env}
		s.claimOrder = append(s.claimOrder, key)
		return nil
	}
	if prev.head == vc.LastHash {
		return nil
	}
	p := &types.FraudProof{
		Offender: env.From, Cluster: vc.Cluster, Kind: types.FraudConflictingViewChange,
		View: vc.NewView, Seq: vc.LastSeq,
		First: prev.env, Second: env,
	}
	return s.emitLocked(p)
}

// emitLocked records a locally detected proof, deduplicating on its locus.
func (s *Slasher) emitLocked(p *types.FraudProof) []*types.FraudProof {
	if s.proofIdx[p.Key()] || len(s.proofs) >= s.cfg.MaxProofs {
		return nil
	}
	s.proofIdx[p.Key()] = true
	s.proofs = append(s.proofs, p)
	return []*types.FraudProof{p}
}

// AddProof ingests a proof received from a peer (gossip) or reloaded from
// storage. It is verified before acceptance — a Byzantine peer must not be
// able to plant false evidence. Returns true when the proof is new.
func (s *Slasher) AddProof(p *types.FraudProof) bool {
	if err := p.Verify(s.cfg.Verifier); err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.proofIdx[p.Key()] || len(s.proofs) >= s.cfg.MaxProofs {
		return false
	}
	s.proofIdx[p.Key()] = true
	s.proofs = append(s.proofs, p)
	return true
}

// Proofs returns a snapshot of all retained fraud proofs.
func (s *Slasher) Proofs() []*types.FraudProof {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*types.FraudProof, len(s.proofs))
	copy(out, s.proofs)
	return out
}

// Offenders aggregates retained proofs per accused node.
func (s *Slasher) Offenders() map[types.NodeID]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[types.NodeID]int)
	for _, p := range s.proofs {
		out[p.Offender]++
	}
	return out
}
