package slasher

import (
	"math/rand"
	"testing"

	"sharper/internal/crypto"
	"sharper/internal/types"
)

func testKeyring(t *testing.T, ids ...types.NodeID) *crypto.Keyring {
	t.Helper()
	kr := crypto.NewKeyring()
	rng := rand.New(rand.NewSource(1))
	for _, id := range ids {
		if err := kr.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
	}
	return kr
}

// testParent stands in for the chain parent every vote names; conflicting
// claims are only slashable within one parent binding.
var testParent = types.HashBytes([]byte("parent"))

func signedConsensus(t *testing.T, kr *crypto.Keyring, typ types.MsgType, from types.NodeID, m *types.ConsensusMsg) *types.Envelope {
	t.Helper()
	signer, err := kr.SignerFor(from)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PrevHashes) == 0 {
		m.PrevHashes = []types.Hash{testParent}
	}
	payload := m.Encode(nil)
	return &types.Envelope{Type: typ, From: from, Payload: payload, Sig: signer.Sign(payload)}
}

func signedVC(t *testing.T, kr *crypto.Keyring, from types.NodeID, vc *types.ViewChange) *types.Envelope {
	t.Helper()
	signer, err := kr.SignerFor(from)
	if err != nil {
		t.Fatal(err)
	}
	payload := vc.Encode(nil)
	return &types.Envelope{Type: types.MsgViewChange, From: from, Payload: payload, Sig: signer.Sign(payload)}
}

// pubOnly rebuilds a verification-only keyring — the position of an external
// auditor who holds public keys but no secrets.
func pubOnly(t *testing.T, kr *crypto.Keyring, ids ...types.NodeID) *crypto.Keyring {
	t.Helper()
	out := crypto.NewKeyring()
	for _, id := range ids {
		pub, ok := kr.PublicKey(id)
		if !ok {
			t.Fatalf("no public key for %d", id)
		}
		out.AddPublicKey(id, pub)
	}
	return out
}

func TestDoubleProposalDetected(t *testing.T) {
	kr := testKeyring(t, 1)
	s := New(Config{Verifier: kr})
	d1 := types.HashBytes([]byte("batch-a"))
	d2 := types.HashBytes([]byte("batch-b"))
	e1 := signedConsensus(t, kr, types.MsgPropose, 1, &types.ConsensusMsg{View: 0, Seq: 3, Digest: d1, Cluster: 0})
	e2 := signedConsensus(t, kr, types.MsgPropose, 1, &types.ConsensusMsg{View: 0, Seq: 3, Digest: d2, Cluster: 0})

	if got := s.Observe(e1); len(got) != 0 {
		t.Fatalf("first proposal produced %d proofs", len(got))
	}
	got := s.Observe(e2)
	if len(got) != 1 {
		t.Fatalf("conflicting proposal produced %d proofs, want 1", len(got))
	}
	p := got[0]
	if p.Offender != 1 || p.Kind != FraudDoubleProposal || p.Seq != 3 {
		t.Fatalf("bad proof: %v", p)
	}
	if err := p.Verify(kr); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	// Offline verification with only public keys.
	if err := p.Verify(pubOnly(t, kr, 1)); err != nil {
		t.Fatalf("offline pub-key-only verification failed: %v", err)
	}
}

// TestCrossClassConflictDetected: a primary whose tampered proposal
// contradicts its own later vote is caught even though no two proposals
// conflict — the slot index collapses message classes.
func TestCrossClassConflictDetected(t *testing.T) {
	kr := testKeyring(t, 2)
	s := New(Config{Verifier: kr})
	d1 := types.HashBytes([]byte("x"))
	d2 := types.HashBytes([]byte("y"))
	s.Observe(signedConsensus(t, kr, types.MsgPropose, 2, &types.ConsensusMsg{View: 1, Seq: 7, Digest: d1, Cluster: 1}))
	got := s.Observe(signedConsensus(t, kr, types.MsgCommit, 2, &types.ConsensusMsg{View: 1, Seq: 7, Digest: d2, Cluster: 1}))
	if len(got) != 1 || got[0].Kind != FraudDoubleProposal {
		t.Fatalf("cross-class conflict not detected: %v", got)
	}
	if err := got[0].Verify(kr); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}

	// Two conflicting plain votes are a double-vote, not a double-proposal.
	s2 := New(Config{Verifier: kr})
	s2.Observe(signedConsensus(t, kr, types.MsgVote, 2, &types.ConsensusMsg{View: 1, Seq: 8, Digest: d1, Cluster: 1}))
	got = s2.Observe(signedConsensus(t, kr, types.MsgCommit, 2, &types.ConsensusMsg{View: 1, Seq: 8, Digest: d2, Cluster: 1}))
	if len(got) != 1 || got[0].Kind != FraudDoubleVote {
		t.Fatalf("double vote not detected: %v", got)
	}
	if err := got[0].Verify(kr); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}

// TestBenignStreamsProduceNothing: consistent votes, byte-identical replays
// (the deferral path re-observes envelopes), different slots, and repeated
// identical view-change claims must never produce evidence.
func TestBenignStreamsProduceNothing(t *testing.T) {
	kr := testKeyring(t, 1, 2, 3)
	s := New(Config{Verifier: kr})
	d := types.HashBytes([]byte("honest"))
	for seq := uint64(1); seq <= 5; seq++ {
		for _, n := range []types.NodeID{1, 2, 3} {
			env := signedConsensus(t, kr, types.MsgVote, n, &types.ConsensusMsg{View: 0, Seq: seq, Digest: d, Cluster: 0})
			for i := 0; i < 3; i++ { // replays included
				if got := s.Observe(env); len(got) != 0 {
					t.Fatalf("benign envelope produced a proof: %v", got[0])
				}
			}
			// Same slot, commit phase, same digest: consistent.
			cm := signedConsensus(t, kr, types.MsgCommit, n, &types.ConsensusMsg{View: 0, Seq: seq, Digest: d, Cluster: 0})
			if got := s.Observe(cm); got != nil {
				t.Fatalf("consistent commit produced a proof")
			}
		}
	}
	head := types.HashBytes([]byte("head5"))
	for _, nv := range []uint64{1, 2, 3} { // escalating views, same honest claim
		vc := signedVC(t, kr, 2, &types.ViewChange{NewView: nv, Cluster: 0, LastSeq: 5, LastHash: head})
		if got := s.Observe(vc); len(got) != 0 {
			t.Fatalf("honest view-change claim produced a proof")
		}
	}
	if len(s.Proofs()) != 0 {
		t.Fatalf("retained %d proofs from a benign stream", len(s.Proofs()))
	}
}

// TestHonestRebindNotSlashed: a slot superseded by a cross-shard chain sync
// is legitimately re-proposed and re-voted with a different digest under a
// different parent. That pattern must neither be indexed as a conflict nor
// be constructible into a proof that verifies.
func TestHonestRebindNotSlashed(t *testing.T) {
	kr := testKeyring(t, 1)
	s := New(Config{Verifier: kr})
	p1 := types.HashBytes([]byte("chain-head-before-sync"))
	p2 := types.HashBytes([]byte("cross-shard-block"))
	d1 := types.HashBytes([]byte("batch-a"))
	d2 := types.HashBytes([]byte("batch-b"))
	e1 := signedConsensus(t, kr, types.MsgPropose, 1,
		&types.ConsensusMsg{View: 0, Seq: 3, Digest: d1, PrevHashes: []types.Hash{p1}})
	e2 := signedConsensus(t, kr, types.MsgPropose, 1,
		&types.ConsensusMsg{View: 0, Seq: 3, Digest: d2, PrevHashes: []types.Hash{p2}})
	s.Observe(e1)
	if got := s.Observe(e2); len(got) != 0 {
		t.Fatalf("honest re-bind produced a proof: %v", got[0])
	}
	// Nor can anyone assemble the two legitimate envelopes into evidence.
	forged := &FraudProof{Offender: 1, Kind: FraudDoubleProposal,
		View: 0, Seq: 3, First: e1, Second: e2}
	if err := forged.Verify(kr); err == nil {
		t.Fatal("proof built from two honest re-bind envelopes verified")
	}
	// A vote that names no parent at all is not indexable evidence either.
	bare := signedConsensus(t, kr, types.MsgVote, 1,
		&types.ConsensusMsg{View: 0, Seq: 9, Digest: d1, PrevHashes: []types.Hash{{}}})
	bare2 := &types.ConsensusMsg{View: 0, Seq: 9, Digest: d2}
	payload := bare2.Encode(nil)
	signer, _ := kr.SignerFor(1)
	s.Observe(bare)
	if got := s.Observe(&types.Envelope{Type: types.MsgVote, From: 1,
		Payload: payload, Sig: signer.Sign(payload)}); len(got) != 0 {
		t.Fatal("parentless vote was indexed as conflicting")
	}
}

func TestConflictingViewChangeClaims(t *testing.T) {
	kr := testKeyring(t, 3)
	s := New(Config{Verifier: kr})
	s.Observe(signedVC(t, kr, 3, &types.ViewChange{NewView: 1, Cluster: 2, LastSeq: 9, LastHash: types.HashBytes([]byte("h1"))}))
	got := s.Observe(signedVC(t, kr, 3, &types.ViewChange{NewView: 4, Cluster: 2, LastSeq: 9, LastHash: types.HashBytes([]byte("h2"))}))
	if len(got) != 1 {
		t.Fatalf("conflicting chain-head claims produced %d proofs, want 1", len(got))
	}
	p := got[0]
	if p.Kind != FraudConflictingViewChange || p.Offender != 3 || p.Seq != 9 {
		t.Fatalf("bad proof: %v", p)
	}
	if err := p.Verify(pubOnly(t, kr, 3)); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}
	// Claims at a different height don't conflict.
	if got := s.Observe(signedVC(t, kr, 3, &types.ViewChange{NewView: 5, Cluster: 2, LastSeq: 10, LastHash: types.HashBytes([]byte("h3"))})); len(got) != 0 {
		t.Fatalf("different-height claim slashed")
	}
}

// TestForgedEnvelopeNotIndexed: an envelope with a bad signature must be
// ignored entirely, or an attacker could plant half of a "conflict" and
// frame an honest node.
func TestForgedEnvelopeNotIndexed(t *testing.T) {
	kr := testKeyring(t, 1)
	s := New(Config{Verifier: kr})
	d1 := types.HashBytes([]byte("a"))
	d2 := types.HashBytes([]byte("b"))
	forged := &types.Envelope{Type: types.MsgPropose, From: 1,
		Payload: (&types.ConsensusMsg{View: 0, Seq: 1, Digest: d1}).Encode(nil),
		Sig:     []byte("not a signature")}
	if got := s.Observe(forged); len(got) != 0 {
		t.Fatal("forged envelope produced a proof")
	}
	// The honest (signed) message for the same slot with a different digest
	// must not conflict with the ignored forgery.
	if got := s.Observe(signedConsensus(t, kr, types.MsgPropose, 1, &types.ConsensusMsg{View: 0, Seq: 1, Digest: d2})); len(got) != 0 {
		t.Fatal("forgery was indexed and framed an honest node")
	}
}

func TestProofDedupAndGossip(t *testing.T) {
	kr := testKeyring(t, 1, 2)
	s := New(Config{Verifier: kr})
	mk := func(d string) *types.Envelope {
		return signedConsensus(t, kr, types.MsgPropose, 1, &types.ConsensusMsg{View: 0, Seq: 3, Digest: types.HashBytes([]byte(d))})
	}
	s.Observe(mk("a"))
	first := s.Observe(mk("b"))
	if len(first) != 1 {
		t.Fatal("no proof for first conflict")
	}
	// A third variant at the same locus is deduplicated.
	if got := s.Observe(mk("c")); len(got) != 0 {
		t.Fatalf("duplicate locus produced another proof")
	}
	if len(s.Proofs()) != 1 {
		t.Fatalf("retained %d proofs, want 1", len(s.Proofs()))
	}

	// An auditor accepts the proof and rejects a tampered copy.
	if err := first[0].Verify(kr); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	bad := *first[0]
	orig := bad.Second
	payload := append([]byte(nil), orig.Payload...)
	payload[0] ^= 0xff // break the signature binding
	bad.Second = &types.Envelope{Type: orig.Type, From: orig.From, Payload: payload, Sig: orig.Sig}
	if err := bad.Verify(kr); err == nil {
		t.Fatal("tampered proof accepted")
	}
}

// TestIndexBounded: the claim index evicts FIFO past MaxEntries rather than
// growing without bound under slot churn.
func TestIndexBounded(t *testing.T) {
	kr := testKeyring(t, 1)
	s := New(Config{Verifier: kr, MaxEntries: 4})
	d := types.HashBytes([]byte("d"))
	for seq := uint64(0); seq < 100; seq++ {
		s.Observe(signedConsensus(t, kr, types.MsgVote, 1, &types.ConsensusMsg{View: 0, Seq: seq, Digest: d}))
	}
	if n := len(s.claims); n > 4 {
		t.Fatalf("claim index grew to %d entries, bound is 4", n)
	}
}
