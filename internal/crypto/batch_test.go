package crypto

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"sharper/internal/obs"
	"sharper/internal/types"
)

// makeSignedWindow returns n envelopes signed by rotating senders, plus the
// keyring that verifies them.
func makeSignedWindow(t *testing.T, auth Authenticator, n int, senders int) []*types.Envelope {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	signers := make(map[types.NodeID]Signer)
	for id := types.NodeID(1); id <= types.NodeID(senders); id++ {
		if err := auth.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
		s, err := auth.SignerFor(id)
		if err != nil {
			t.Fatal(err)
		}
		signers[id] = s
	}
	envs := make([]*types.Envelope, n)
	for i := range envs {
		from := types.NodeID(1 + i%senders)
		payload := binary.LittleEndian.AppendUint64(nil, uint64(i))
		envs[i] = &types.Envelope{Type: types.MsgVote, From: from, Payload: payload, Sig: signers[from].Sign(payload)}
	}
	return envs
}

// TestBisectPinsForgedSignature is the slashing-soundness property of windowed
// verification: for every possible position of a single forged signature in a
// full window, bisection must mark exactly that envelope invalid and every
// other envelope valid. Run for both keyring backends.
func TestBisectPinsForgedSignature(t *testing.T) {
	backends := []struct {
		name string
		auth Authenticator
	}{
		{"mac", NewMACKeyring()},
		{"ed25519", NewKeyring()},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			const window = 16
			bv, ok := b.auth.(BatchVerifier)
			if !ok {
				t.Fatalf("%T does not implement BatchVerifier", b.auth)
			}
			p := &VerifyPool{verifier: b.auth, batch: bv, window: window}
			for forged := 0; forged < window; forged++ {
				envs := makeSignedWindow(t, b.auth, window, 3)
				envs[forged].Sig[0] ^= 0xff
				p.verifyWindow(envs, &batchScratch{})
				for i, env := range envs {
					ok, known := env.Auth()
					if !known {
						t.Fatalf("forged=%d: envelope %d has no verdict", forged, i)
					}
					if want := i != forged; ok != want {
						t.Fatalf("forged=%d: envelope %d verdict %v, want %v", forged, i, ok, want)
					}
				}
			}
		})
	}
}

// countingKeyring counts the calls that reach a MACKeyring.
type countingKeyring struct {
	*MACKeyring
	singles, batches int
}

func (c *countingKeyring) Verify(from types.NodeID, payload, sig []byte) bool {
	c.singles++
	return c.MACKeyring.Verify(from, payload, sig)
}

func (c *countingKeyring) VerifyBatch(from []types.NodeID, payloads, sigs [][]byte) bool {
	c.batches++
	return c.MACKeyring.VerifyBatch(from, payloads, sigs)
}

// TestUnsignedEnvelopesStayOutOfTheAggregate: clients do not sign their
// submits, and a submit that shares a window with honest votes must not fail
// the window's aggregate check — that used to bisect every such window down
// to single envelopes, each MAC computed again. The unsigned ones read
// invalid and the votes valid after one VerifyBatch call and no bisection.
func TestUnsignedEnvelopesStayOutOfTheAggregate(t *testing.T) {
	k := &countingKeyring{MACKeyring: NewMACKeyring()}
	const window = 16
	envs := makeSignedWindow(t, k, window, 3)
	unsigned := map[int]bool{0: true, 5: true, 6: true, 15: true}
	for i := range unsigned {
		envs[i] = &types.Envelope{Type: types.MsgSubmit, From: types.ClientIDBase + 1, Payload: envs[i].Payload}
	}
	envs[6].Sig = []byte{} // present but empty reads the same as absent

	m := obs.NewVerifyMetrics(obs.NewRegistry())
	p := &VerifyPool{verifier: k, batch: k, window: window}
	p.SetMetrics(m)
	p.verifyWindow(envs, &batchScratch{})
	for i, env := range envs {
		if ok, known := env.Auth(); !known || ok == unsigned[i] {
			t.Fatalf("envelope %d (unsigned %v): verdict %v, known %v", i, unsigned[i], ok, known)
		}
	}
	if k.batches != 1 || k.singles != 0 {
		t.Fatalf("%d VerifyBatch and %d Verify calls, want 1 and 0", k.batches, k.singles)
	}
	if n := m.Bisects.Load(); n != 0 {
		t.Fatalf("%d bisections of an honest window", n)
	}

	// A window of nothing but submits reaches the verifier not at all.
	k.batches = 0
	p.verifyWindow([]*types.Envelope{envs[0], envs[5]}, &batchScratch{})
	if k.batches != 0 || k.singles != 0 {
		t.Fatalf("unsigned-only window made %d VerifyBatch and %d Verify calls", k.batches, k.singles)
	}
}

// TestVerifyBatchBackends checks the aggregate contract of both VerifyBatch
// implementations: true iff every triple verifies; any forged tag, unknown
// sender, or malformed signature makes the whole window false. Singleton
// Verify must agree on every item so bisection converges to the same verdicts.
func TestVerifyBatchBackends(t *testing.T) {
	backends := []struct {
		name string
		auth Authenticator
	}{
		{"mac", NewMACKeyring()},
		{"ed25519", NewKeyring()},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			bv := b.auth.(BatchVerifier)
			envs := makeSignedWindow(t, b.auth, 12, 3)
			load := func(envs []*types.Envelope) ([]types.NodeID, [][]byte, [][]byte) {
				var s batchScratch
				s.load(envs)
				return s.from, s.payloads, s.sigs
			}

			if from, payloads, sigs := load(envs); !bv.VerifyBatch(from, payloads, sigs) {
				t.Fatal("all-honest window must verify")
			}
			// Same-sender streak (exercises the MAC session cache switch path).
			streak := makeSignedWindow(t, b.auth, 8, 1)
			if from, payloads, sigs := load(streak); !bv.VerifyBatch(from, payloads, sigs) {
				t.Fatal("single-sender window must verify")
			}

			forged := makeSignedWindow(t, b.auth, 12, 3)
			forged[5].Sig[3] ^= 0x01
			if from, payloads, sigs := load(forged); bv.VerifyBatch(from, payloads, sigs) {
				t.Fatal("window with a forged signature must not verify")
			}
			if b.auth.Verify(forged[5].From, forged[5].Payload, forged[5].Sig) {
				t.Fatal("singleton Verify disagrees with the batch verdict")
			}

			unknown := makeSignedWindow(t, b.auth, 4, 2)
			unknown[2].From = 99 // never registered
			if from, payloads, sigs := load(unknown); bv.VerifyBatch(from, payloads, sigs) {
				t.Fatal("window with an unknown sender must not verify")
			}

			short := makeSignedWindow(t, b.auth, 4, 2)
			short[1].Sig = short[1].Sig[:7]
			if from, payloads, sigs := load(short); bv.VerifyBatch(from, payloads, sigs) {
				t.Fatal("window with a truncated signature must not verify")
			}
		})
	}
}

// TestVerifyPoolWindowOneIsPerSignature: window 1 must leave the batch path
// disabled entirely — it is the per-signature A/B baseline.
func TestVerifyPoolWindowOneIsPerSignature(t *testing.T) {
	k := NewMACKeyring()
	in := make(chan *types.Envelope, 4)
	p := NewVerifyPool(k, in, 1, 4, 1)
	defer p.Close()
	if p.batch != nil {
		t.Fatal("window 1 must not enable batch verification")
	}
	if p.window != 1 {
		t.Fatalf("window = %d, want 1", p.window)
	}
}

// TestVerifyPoolBatchedWindowEndToEnd pre-fills the inbox so the first worker
// at it gathers one full window, with a single forged signature inside it,
// and checks the emitted stream pins exactly that envelope.
func TestVerifyPoolBatchedWindowEndToEnd(t *testing.T) {
	k := NewMACKeyring()
	const window = 16
	envs := makeSignedWindow(t, k, window, 3)
	const forged = 11
	envs[forged].Sig[0] ^= 0xff

	in := make(chan *types.Envelope, window)
	for _, e := range envs {
		in <- e
	}
	// The pool starts after the inbox is full, so the first turn sees the
	// whole window at once.
	p := NewVerifyPool(k, in, 2, 8, window)
	defer p.Close()
	for i := 0; i < window; i++ {
		select {
		case env := <-p.Out():
			if env != envs[i] {
				t.Fatalf("envelope %d out of order", i)
			}
			ok, known := env.Auth()
			if !known {
				t.Fatalf("envelope %d has no verdict", i)
			}
			if want := i != forged; ok != want {
				t.Fatalf("envelope %d verdict %v, want %v", i, ok, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pool stalled at envelope %d", i)
		}
	}
}

// TestFrameSessionMatchesFrameAuth: the per-link session form must produce
// and accept exactly the tags of the pooled FrameAuth and the one-shot
// FrameTag — all three are views of the same keyed MAC.
func TestFrameSessionMatchesFrameAuth(t *testing.T) {
	key := WireKey("session-test")
	auth := NewFrameAuth(key)
	sess := auth.NewSession()

	for i := 0; i < 32; i++ {
		msg := binary.LittleEndian.AppendUint64(nil, uint64(i*i))
		want := FrameTag(key, msg)
		gotSess := sess.AppendTag(nil, msg)
		gotAuth := auth.AppendTag(nil, msg)
		if string(gotSess) != string(want) || string(gotAuth) != string(want) {
			t.Fatalf("frame %d: tag mismatch across implementations", i)
		}
		if !sess.Verify(msg, want) || !auth.Verify(msg, want) || !VerifyFrameTag(key, msg, want) {
			t.Fatalf("frame %d: valid tag rejected", i)
		}
		bad := append([]byte(nil), want...)
		bad[0] ^= 0x80
		if sess.Verify(msg, bad) || auth.Verify(msg, bad) {
			t.Fatalf("frame %d: corrupted tag accepted", i)
		}
		if sess.Verify(msg, want[:16]) {
			t.Fatalf("frame %d: truncated tag accepted", i)
		}
	}

	// AppendTag with msg aliasing dst — the in-place frame assembly pattern.
	frame := append([]byte(nil), []byte("frame body")...)
	tagged := sess.AppendTag(frame, frame)
	body, tag := tagged[:len(frame)], tagged[len(frame):]
	if !sess.Verify(body, tag) {
		t.Fatal("aliased AppendTag produced an invalid tag")
	}
}
