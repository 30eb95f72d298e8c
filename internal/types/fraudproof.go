package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// public-key verification only. Declared here (rather than importing
// internal/crypto) so the wire package stays dependency-free; crypto.Keyring
// and crypto.MACKeyring satisfy it as-is.
type SigVerifier interface {
	Verify(from NodeID, payload, sig []byte) bool
}

// FraudProof bundles two conflicting signed envelopes from one node into a
// self-contained, offline-verifiable accusation: any party holding the
// cluster's public keys can check both signatures and the conflict without
// trusting the accuser or replaying the run. The envelopes are embedded
// whole (payload + signature) so the proof survives gossip and storage.
//
// Third-party verifiability requires asymmetric signatures (the Ed25519
// keyring). Under the default HMAC authenticator a proof still verifies for
// parties holding the pairwise MAC keys — the replicas themselves and the
// test driver — but is not evidence to an outsider, since any key holder
// could have forged either envelope.
type FraudProof struct {
	Offender NodeID
	Cluster  ClusterID
	Kind     FraudKind
	View     uint64 // view of the conflicting pair (new-view for VC claims)
	Seq      uint64 // slot of the conflict (chain height for VC claims)
	First    *Envelope
	Second   *Envelope
}

// Key is a stable dedup identity: one proof per (offender, kind, locus).
func (p *FraudProof) Key() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", p.Offender, p.Cluster, p.Kind, p.View, p.Seq)
}

func (p *FraudProof) String() string {
	return fmt.Sprintf("fraud[%s node=%d cluster=%d view=%d seq=%d]",
		p.Kind, p.Offender, p.Cluster, p.View, p.Seq)
}

// maxFraudEnvelope bounds one embedded envelope; consensus envelopes are
// small (votes) or batch-sized (proposals), so anything beyond this is a
// hostile length prefix.
const maxFraudEnvelope = 1 << 20

// Encode appends the canonical encoding of p.
func (p *FraudProof) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Offender))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Cluster))
	dst = append(dst, byte(p.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, p.View)
	dst = binary.LittleEndian.AppendUint64(dst, p.Seq)
	for _, env := range [...]*Envelope{p.First, p.Second} {
		enc := env.Encode(nil)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

// DecodeFraudProof parses a FraudProof. The embedded envelopes alias b.
func DecodeFraudProof(b []byte) (*FraudProof, error) {
	const hdr = 4 + 2 + 1 + 8 + 8
	if len(b) < hdr {
		return nil, fmt.Errorf("types: short fraud proof: %d bytes", len(b))
	}
	p := &FraudProof{
		Offender: NodeID(binary.LittleEndian.Uint32(b)),
		Cluster:  ClusterID(binary.LittleEndian.Uint16(b[4:])),
		Kind:     FraudKind(b[6]),
		View:     binary.LittleEndian.Uint64(b[7:]),
		Seq:      binary.LittleEndian.Uint64(b[15:]),
	}
	off := hdr
	for _, slot := range [...]**Envelope{&p.First, &p.Second} {
		if len(b) < off+4 {
			return nil, fmt.Errorf("types: short fraud proof envelope header")
		}
		elen := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if elen > maxFraudEnvelope || elen > len(b)-off {
			return nil, fmt.Errorf("types: fraud proof envelope overruns buffer")
		}
		env, used, err := DecodeEnvelope(b[off : off+elen])
		if err != nil {
			return nil, err
		}
		if used != elen {
			// Trailing garbage inside the length-prefixed region would make
			// the decoded proof re-encode differently — reject.
			return nil, fmt.Errorf("types: fraud proof envelope length %d, consumed %d", elen, used)
		}
		*slot = env
		off += elen
	}
	return p, nil
}

func isVote(t MsgType) bool { return t == MsgVote || t == MsgCommit }

// Verify checks that the proof is self-consistent and damning: both
// envelopes carry the offender's valid signature and together assert a
// conflict no honest node can produce. It needs only v (public keys) — no
// chain state, no run history.
func (p *FraudProof) Verify(v SigVerifier) error {
	if p.First == nil || p.Second == nil {
		return fmt.Errorf("fraud proof missing envelope")
	}
	for i, env := range [...]*Envelope{p.First, p.Second} {
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
			if p.First.Type != MsgPropose && p.Second.Type != MsgPropose {
				return fmt.Errorf("double-proposal proof without a proposal")
			}
			for i, env := range [...]*Envelope{p.First, p.Second} {
				if env.Type != MsgPropose && !isVote(env.Type) {
					return fmt.Errorf("envelope %d type %s is not a proposal or vote", i+1, env.Type)
				}
			}
		} else {
			for i, env := range [...]*Envelope{p.First, p.Second} {
				if !isVote(env.Type) {
					return fmt.Errorf("envelope %d type %s is not a vote", i+1, env.Type)
				}
			}
		}
		var digests [2]Hash
		var parents [2]Hash
		for i, env := range [...]*Envelope{p.First, p.Second} {
			m, err := DecodeConsensusMsg(env.Payload)
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
		var heads [2]Hash
		for i, env := range [...]*Envelope{p.First, p.Second} {
			if env.Type != MsgViewChange {
				return fmt.Errorf("envelope %d type %s is not a view-change", i+1, env.Type)
			}
			vc, err := DecodeViewChange(env.Payload)
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

// EvidenceDump carries one replica's accumulated fraud proofs to a
// requesting driver, answering a QueryEvidence.
type EvidenceDump struct {
	Node   NodeID
	Proofs []*FraudProof
}

// maxFraudProof bounds one encoded proof inside a dump (two envelopes plus
// the fixed header).
const maxFraudProof = 2*maxFraudEnvelope + 64

// Encode appends the canonical encoding.
func (d *EvidenceDump) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.Node))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.Proofs)))
	for _, p := range d.Proofs {
		enc := p.Encode(nil)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

// DecodeEvidenceDump parses an EvidenceDump.
func DecodeEvidenceDump(b []byte) (*EvidenceDump, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("types: short evidence dump")
	}
	d := &EvidenceDump{Node: NodeID(binary.LittleEndian.Uint32(b))}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	off := 8
	for i := 0; i < n; i++ {
		if len(b) < off+4 {
			return nil, fmt.Errorf("types: short evidence dump proof header")
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l > maxFraudProof || l > len(b)-off {
			return nil, fmt.Errorf("types: evidence dump proof overruns buffer")
		}
		p, err := DecodeFraudProof(b[off : off+l])
		if err != nil {
			return nil, err
		}
		if len(p.Encode(nil)) != l {
			return nil, fmt.Errorf("types: evidence dump proof has trailing bytes")
		}
		d.Proofs = append(d.Proofs, p)
		off += l
	}
	return d, nil
}
