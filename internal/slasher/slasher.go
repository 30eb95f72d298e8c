// Package slasher is the equivocation oracle of the test suite: it watches
// the consensus messages replicas receive, indexes every signed claim a
// node makes about a slot or its chain head, and when two claims conflict it
// bundles the two envelopes into a FraudProof — a self-contained
// accusation verifiable offline by any party holding the public keys.
// Nothing in the runtime imports it: a Witness tees each replica's inbox
// through core.Config.WrapFabric, and the attack matrix asserts on what it
// finds (DESIGN.md, "Adversary model & equivocation oracle").
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
// Non-goals (documented in DESIGN.md): cross-shard XAccept grants are not
// indexed, because an honest participant legitimately re-grants the same
// (view, digest) with a different chain head after a lock expiry or an
// initiator withdrawal; and byte-identical rebroadcasts are always benign
// (the rules require differing content). Only a Byzantine cluster's
// messages are indexed: a crash cluster's are unsigned, prove nothing,
// and share the ordering kinds.
package slasher

import "sharper/internal/types"

// Config parameterizes a Slasher.
type Config struct {
	// Verifier checks envelope signatures before a claim is indexed, so a
	// forged envelope cannot plant evidence against an honest node.
	Verifier SigVerifier
	// MaxEntries bounds the claim index; oldest entries are evicted FIFO.
	// Defaults to 16384.
	MaxEntries int
}

// claimKey identifies one claim an honest node makes at most once. A slot
// claim is keyed by (view, seq, parent); the message class (proposal / vote
// / commit) is intentionally absent, since an honest node binds one digest
// per slot across all three, while the parent is present, since re-binding
// a slot under a new parent after a cross-shard chain sync is honest. A
// chain-head claim (head set) is keyed by its height in seq.
type claimKey struct {
	node    types.NodeID
	cluster types.ClusterID
	head    bool
	view    uint64
	seq     uint64
	parent  types.Hash
}

// claimRec is the first claim seen under a key: the digest bound to the
// slot, or the claimed chain head, and the envelope that carried it.
type claimRec struct {
	value types.Hash
	env   *types.Envelope
}

// Slasher is one receiver's claim index. It is not safe for concurrent use;
// a Witness serialises access to the ones it holds.
type Slasher struct {
	cfg      Config
	claims   map[claimKey]claimRec
	order    []claimKey
	proofs   []*FraudProof
	proofIdx map[string]bool
}

// New creates a Slasher.
func New(cfg Config) *Slasher {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1 << 14
	}
	return &Slasher{
		cfg:      cfg,
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
	return s.cfg.Verifier.Verify(env.From, env.Payload, env.Sig)
}

// Observe feeds one inbound envelope through the detectors and returns any
// freshly minted fraud proofs (at most one today; a slice for future
// detectors). Re-observing the same envelope — a duplicating fabric delivers
// it twice — is harmless: identical claims never conflict, and proofs
// deduplicate on their locus.
func (s *Slasher) Observe(env *types.Envelope) []*FraudProof {
	switch env.Type {
	case types.MsgPropose, types.MsgVote, types.MsgCommit:
		m, err := types.DecodeConsensusMsg(env.Payload)
		if err != nil || len(m.PrevHashes) == 0 || !s.authentic(env) {
			// A slot claim that names no parent is not self-contained
			// evidence: it cannot be told apart from an honest re-vote after
			// a chain re-bind, so it is never indexed (current engines
			// always name one).
			return nil
		}
		key := claimKey{node: env.From, cluster: m.Cluster, view: m.View, seq: m.Seq, parent: m.PrevHashes[0]}
		prev := s.index(key, m.Digest, env)
		if prev == nil {
			return nil
		}
		kind := FraudDoubleVote
		if prev.Type == types.MsgPropose || env.Type == types.MsgPropose {
			kind = FraudDoubleProposal
		}
		return s.emit(&FraudProof{Offender: env.From, Cluster: m.Cluster, Kind: kind,
			View: m.View, Seq: m.Seq, First: prev, Second: env})
	case types.MsgViewChange:
		vc, err := types.DecodeViewChange(env.Payload)
		if err != nil || !s.authentic(env) {
			return nil
		}
		prev := s.index(claimKey{node: env.From, cluster: vc.Cluster, head: true, seq: vc.LastSeq}, vc.LastHash, env)
		if prev == nil {
			return nil
		}
		return s.emit(&FraudProof{Offender: env.From, Cluster: vc.Cluster, Kind: FraudConflictingViewChange,
			View: vc.NewView, Seq: vc.LastSeq, First: prev, Second: env})
	default:
		return nil
	}
}

// index records a claim and returns the envelope of an earlier claim under
// the same key that binds a different value, or nil. The same value again —
// a consistent claim or a byte-identical replay — is benign.
func (s *Slasher) index(key claimKey, value types.Hash, env *types.Envelope) *types.Envelope {
	prev, ok := s.claims[key]
	if !ok {
		if len(s.claims) >= s.cfg.MaxEntries {
			delete(s.claims, s.order[0])
			s.order = s.order[1:]
		}
		s.claims[key] = claimRec{value: value, env: env}
		s.order = append(s.order, key)
		return nil
	}
	if prev.value == value {
		return nil
	}
	return prev.env
}

// emit records a detected proof, deduplicating on its locus.
func (s *Slasher) emit(p *FraudProof) []*FraudProof {
	if s.proofIdx[p.Key()] {
		return nil
	}
	s.proofIdx[p.Key()] = true
	s.proofs = append(s.proofs, p)
	return []*FraudProof{p}
}

// Proofs returns the retained fraud proofs.
func (s *Slasher) Proofs() []*FraudProof { return s.proofs }
