package slasher

import (
	"bytes"
	"fmt"

	"sharper/internal/types"
)

// FraudKind classifies what the two envelopes bundled in a FraudProof prove
// about the offender.
type FraudKind uint8

const (
	// FraudDoubleProposal: a primary asserted two different digests for one
	// (view, seq, parent) slot binding — either two conflicting
	// proposals, or a proposal whose digest contradicts the primary's
	// own vote. The parent must match across both envelopes: a slot
	// re-bound under a new parent (cross-shard chain sync) is honest.
	FraudDoubleProposal FraudKind = iota + 1
	// FraudDoubleVote: a node cast vote/commit messages for two different
	// digests at one (view, seq, parent) slot binding.
	FraudDoubleVote
	// FraudConflictingViewChange: a node claimed two different chain heads
	// for the same height across view-change messages. The per-cluster chain
	// is append-only, so one height has exactly one hash for an honest node,
	// stable across crash-recovery.
	FraudConflictingViewChange
)

var fraudKindNames = map[FraudKind]string{
	FraudDoubleProposal:        "double-proposal",
	FraudDoubleVote:            "double-vote",
	FraudConflictingViewChange: "conflicting-view-change",
}

func (k FraudKind) String() string {
	if s, ok := fraudKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FraudKind(%d)", uint8(k))
}

// SigVerifier is the slice of the crypto authenticator a fraud proof needs:
// public-key verification only. crypto.Keyring and crypto.MACKeyring satisfy
// it as-is.
type SigVerifier interface {
	Verify(from types.NodeID, payload, sig []byte) bool
}

// FraudProof bundles two conflicting signed envelopes from one node into a
// self-contained, offline-verifiable accusation: any party holding the
// cluster's public keys can check both signatures and the conflict without
// trusting the accuser or replaying the run. The envelopes are embedded
// whole (payload + signature), so the proof needs nothing else.
//
// Third-party verifiability requires asymmetric signatures (the Ed25519
// keyring). Under the default HMAC authenticator a proof still verifies for
// parties holding the pairwise MAC keys — the replicas themselves and the
// test driver — but is not evidence to an outsider, since any key holder
// could have forged either envelope.
type FraudProof struct {
	Offender types.NodeID
	Cluster  types.ClusterID
	Kind     FraudKind
	View     uint64 // view of the conflicting pair (new-view for VC claims)
	Seq      uint64 // slot of the conflict (chain height for VC claims)
	First    *types.Envelope
	Second   *types.Envelope
}

// Key is a stable dedup identity: one proof per (offender, kind, locus).
func (p *FraudProof) Key() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", p.Offender, p.Cluster, p.Kind, p.View, p.Seq)
}

func (p *FraudProof) String() string {
	return fmt.Sprintf("fraud[%s node=%d cluster=%d view=%d seq=%d]",
		p.Kind, p.Offender, p.Cluster, p.View, p.Seq)
}

func isVote(t types.MsgType) bool { return t == types.MsgVote || t == types.MsgCommit }

// Verify checks that the proof is self-consistent and damning: both
// envelopes carry the offender's valid signature and together assert a
// conflict no honest node can produce. It needs only v (public keys) — no
// chain state, no run history.
func (p *FraudProof) Verify(v SigVerifier) error {
	if p.First == nil || p.Second == nil {
		return fmt.Errorf("fraud proof missing envelope")
	}
	for i, env := range [...]*types.Envelope{p.First, p.Second} {
		if env.From != p.Offender {
			return fmt.Errorf("envelope %d is from node %d, not offender %d", i+1, env.From, p.Offender)
		}
		if v != nil && !v.Verify(env.From, env.Payload, env.Sig) {
			return fmt.Errorf("envelope %d signature invalid", i+1)
		}
	}
	if bytes.Equal(p.First.Payload, p.Second.Payload) && p.First.Type == p.Second.Type {
		// A byte-identical rebroadcast is benign, never fraud.
		return fmt.Errorf("envelopes are identical")
	}
	switch p.Kind {
	case FraudDoubleProposal, FraudDoubleVote:
		if p.Kind == FraudDoubleProposal {
			if p.First.Type != types.MsgPropose && p.Second.Type != types.MsgPropose {
				return fmt.Errorf("double-proposal proof without a proposal")
			}
			for i, env := range [...]*types.Envelope{p.First, p.Second} {
				if env.Type != types.MsgPropose && !isVote(env.Type) {
					return fmt.Errorf("envelope %d type %s is not a proposal or vote", i+1, env.Type)
				}
			}
		} else {
			for i, env := range [...]*types.Envelope{p.First, p.Second} {
				if !isVote(env.Type) {
					return fmt.Errorf("envelope %d type %s is not a vote", i+1, env.Type)
				}
			}
		}
		var digests [2]types.Hash
		var parents [2]types.Hash
		for i, env := range [...]*types.Envelope{p.First, p.Second} {
			m, err := types.DecodeConsensusMsg(env.Payload)
			if err != nil {
				return fmt.Errorf("envelope %d: %w", i+1, err)
			}
			if m.View != p.View || m.Seq != p.Seq || m.Cluster != p.Cluster {
				return fmt.Errorf("envelope %d binds (view=%d seq=%d cluster=%d), proof claims (view=%d seq=%d cluster=%d)",
					i+1, m.View, m.Seq, m.Cluster, p.View, p.Seq, p.Cluster)
			}
			if len(m.PrevHashes) == 0 {
				// Without a named parent the claim is not self-contained: an
				// honest node re-votes a slot re-bound by a cross-shard chain
				// sync, and only the parent separates that from equivocation.
				return fmt.Errorf("envelope %d names no parent", i+1)
			}
			digests[i] = m.Digest
			parents[i] = m.PrevHashes[0]
		}
		if parents[0] != parents[1] {
			return fmt.Errorf("envelopes bind different parents (%x vs %x): honest slot re-bind, not fraud",
				parents[0][:4], parents[1][:4])
		}
		if digests[0] == digests[1] {
			return fmt.Errorf("envelopes agree on digest %x", digests[0][:4])
		}
	case FraudConflictingViewChange:
		var heads [2]types.Hash
		for i, env := range [...]*types.Envelope{p.First, p.Second} {
			if env.Type != types.MsgViewChange {
				return fmt.Errorf("envelope %d type %s is not a view-change", i+1, env.Type)
			}
			vc, err := types.DecodeViewChange(env.Payload)
			if err != nil {
				return fmt.Errorf("envelope %d: %w", i+1, err)
			}
			if vc.Cluster != p.Cluster || vc.LastSeq != p.Seq {
				return fmt.Errorf("envelope %d claims (cluster=%d height=%d), proof claims (cluster=%d height=%d)",
					i+1, vc.Cluster, vc.LastSeq, p.Cluster, p.Seq)
			}
			heads[i] = vc.LastHash
		}
		if heads[0] == heads[1] {
			return fmt.Errorf("envelopes agree on chain head %x", heads[0][:4])
		}
	default:
		return fmt.Errorf("unknown fraud kind %d", p.Kind)
	}
	return nil
}
