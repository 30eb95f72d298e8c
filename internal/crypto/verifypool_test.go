package crypto

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sharper/internal/obs"
	"sharper/internal/types"
)

// TestVerifyPoolOrderAndVerdicts drives the pool with interleaved traffic
// from several senders (a deterministic subset carrying corrupted
// signatures, another carrying none, as a client's submit does) and asserts
// the two contracts the consensus loop relies on: envelopes emerge in exactly
// the order they were submitted (so per-sender FIFO is preserved), and every
// envelope carries the correct verdict. The metrics must count every envelope
// that passed through, signed or not. Run under -race this also exercises the
// worker pool for data races.
func TestVerifyPoolOrderAndVerdicts(t *testing.T) {
	k := NewMACKeyring()
	rng := rand.New(rand.NewSource(1))
	signers := make(map[types.NodeID]Signer)
	for id := types.NodeID(1); id <= 3; id++ {
		if err := k.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
		s, err := k.SignerFor(id)
		if err != nil {
			t.Fatal(err)
		}
		signers[id] = s
	}

	const total = 600
	in := make(chan *types.Envelope, total)
	p := NewVerifyPool(k, in, 4, 32, 16)
	defer p.Close()
	m := obs.NewVerifyMetrics(obs.NewRegistry())
	p.SetMetrics(m)

	sent := make([]*types.Envelope, 0, total)
	wantOK := make([]bool, 0, total)
	for i := 0; i < total; i++ {
		from := types.NodeID(1 + i%3)
		payload := binary.LittleEndian.AppendUint64(nil, uint64(i))
		sig := signers[from].Sign(payload)
		ok := true
		if i%7 == 0 {
			sig[0] ^= 0xff // corrupt: must verify false
			ok = false
		}
		if i%11 == 0 {
			sig, ok = nil, false // unsigned: not authenticated
		}
		env := &types.Envelope{Type: types.MsgPrepare, From: from, Payload: payload, Sig: sig}
		sent = append(sent, env)
		wantOK = append(wantOK, ok)
		in <- env
	}

	for i := 0; i < total; i++ {
		select {
		case env := <-p.Out():
			if env != sent[i] {
				t.Fatalf("envelope %d emitted out of order", i)
			}
			ok, known := env.Auth()
			if !known {
				t.Fatalf("envelope %d emitted without a verdict", i)
			}
			if ok != wantOK[i] {
				t.Fatalf("envelope %d: verdict %v, want %v", i, ok, wantOK[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pool stalled after %d envelopes", i)
		}
	}
	if n := m.Envelopes.Load(); n != total {
		t.Fatalf("verify_envelopes counts %d of %d envelopes", n, total)
	}
}

// TestVerifyPoolMalformedSignatures feeds the pool ed25519 envelopes with
// truncated, oversized, empty, and garbage signatures — adversarial input at
// the authentication boundary. Every envelope must emerge, in order, with a
// false verdict, and the pool must keep serving valid traffic afterwards.
func TestVerifyPoolMalformedSignatures(t *testing.T) {
	k := NewKeyring()
	rng := rand.New(rand.NewSource(2))
	if err := k.Generate(1, rng); err != nil {
		t.Fatal(err)
	}
	s, err := k.SignerFor(1)
	if err != nil {
		t.Fatal(err)
	}

	in := make(chan *types.Envelope, 64)
	p := NewVerifyPool(k, in, 4, 8, 8)
	defer p.Close()

	payload := []byte("attack at dawn")
	good := s.Sign(payload)
	malformed := [][]byte{
		nil,                                     // absent
		{},                                      // empty
		good[:5],                                // truncated
		good[:63],                               // one byte short
		append(append([]byte{}, good...), 0xaa), // one byte long
		make([]byte, 64),                        // right length, all zeros
		{0xde, 0xad, 0xbe, 0xef},                // garbage
	}
	var sent []*types.Envelope
	var want []bool
	for _, sig := range malformed {
		env := &types.Envelope{Type: types.MsgPrepare, From: 1, Payload: payload, Sig: sig}
		sent = append(sent, env)
		want = append(want, false)
		in <- env
	}
	// A valid envelope after the junk: the pool must not have wedged.
	env := &types.Envelope{Type: types.MsgPrepare, From: 1, Payload: payload, Sig: good}
	sent = append(sent, env)
	want = append(want, true)
	in <- env

	for i := range sent {
		select {
		case got := <-p.Out():
			if got != sent[i] {
				t.Fatalf("envelope %d emitted out of order", i)
			}
			ok, known := got.Auth()
			if !known {
				t.Fatalf("envelope %d emitted without a verdict", i)
			}
			if ok != want[i] {
				t.Fatalf("envelope %d: verdict %v, want %v (sig len %d)", i, ok, want[i], len(got.Sig))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pool stalled after %d envelopes", i)
		}
	}
}

// TestVerifyPoolBadMACFloodDoesNotStarveHonest floods the pool with a
// compromised peer's bad-MAC envelopes interleaved with honest traffic. The
// pool's contract — submission-order output with correct verdicts — must
// hold throughout: the flood cannot wedge the pool, starve honest envelopes,
// or flip a verdict.
func TestVerifyPoolBadMACFloodDoesNotStarveHonest(t *testing.T) {
	k := NewMACKeyring()
	rng := rand.New(rand.NewSource(3))
	signers := make(map[types.NodeID]Signer)
	for id := types.NodeID(1); id <= 2; id++ {
		if err := k.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
		s, err := k.SignerFor(id)
		if err != nil {
			t.Fatal(err)
		}
		signers[id] = s
	}

	const total = 2000
	in := make(chan *types.Envelope, 256)
	p := NewVerifyPool(k, in, 4, 32, 16)
	defer p.Close()

	type expect struct {
		env *types.Envelope
		ok  bool
	}
	expects := make(chan expect, total)
	go func() {
		for i := 0; i < total; i++ {
			var env *types.Envelope
			var ok bool
			if i%10 == 9 {
				// One honest envelope per ten flood envelopes.
				payload := binary.LittleEndian.AppendUint64(nil, uint64(i))
				env = &types.Envelope{Type: types.MsgCommit, From: 2, Payload: payload, Sig: signers[2].Sign(payload)}
				ok = true
			} else {
				payload := binary.LittleEndian.AppendUint64(nil, uint64(i))
				sig := signers[1].Sign(payload)
				sig[len(sig)/2] ^= 0xff
				env = &types.Envelope{Type: types.MsgPrepare, From: 1, Payload: payload, Sig: sig}
			}
			expects <- expect{env, ok}
			in <- env
		}
		close(expects)
	}()

	honest := 0
	deadline := time.After(30 * time.Second)
	for i := 0; i < total; i++ {
		var want expect
		select {
		case want = <-expects:
		case <-deadline:
			t.Fatalf("producer stalled at envelope %d", i)
		}
		select {
		case got := <-p.Out():
			if got != want.env {
				t.Fatalf("envelope %d emitted out of order", i)
			}
			ok, known := got.Auth()
			if !known {
				t.Fatalf("envelope %d emitted without a verdict", i)
			}
			if ok != want.ok {
				t.Fatalf("envelope %d: verdict %v, want %v", i, ok, want.ok)
			}
			if ok {
				honest++
			}
		case <-deadline:
			t.Fatalf("pool starved: stalled at envelope %d (%d honest through)", i, honest)
		}
	}
	if honest != total/10 {
		t.Fatalf("%d honest envelopes emerged, want %d", honest, total/10)
	}
}

// TestVerifyPoolCloseUnblocks asserts Close returns even with envelopes
// still queued and nobody draining Out.
func TestVerifyPoolCloseUnblocks(t *testing.T) {
	k := NewMACKeyring()
	rng := rand.New(rand.NewSource(1))
	if err := k.Generate(1, rng); err != nil {
		t.Fatal(err)
	}
	in := make(chan *types.Envelope, 1024)
	p := NewVerifyPool(k, in, 2, 4, 4)
	for i := 0; i < 1024; i++ {
		in <- &types.Envelope{From: 1, Payload: []byte{byte(i)}}
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the pool goroutines")
	}
}

// stubVerifier accepts every signature after a delay the payload's first
// byte gives in milliseconds. It reports when a call begins, counts how many
// run at once, and notes the order in which they end.
type stubVerifier struct {
	entered chan struct{} // one token per call begun; nil → not reported

	mu       sync.Mutex
	running  int
	maxAtOne int
	finished [][]byte // payloads, in the order their calls returned
}

func (s *stubVerifier) Verify(_ types.NodeID, payload, _ []byte) bool {
	s.mu.Lock()
	s.running++
	if s.running > s.maxAtOne {
		s.maxAtOne = s.running
	}
	s.mu.Unlock()
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	time.Sleep(time.Duration(payload[0]) * time.Millisecond)
	s.mu.Lock()
	s.running--
	s.finished = append(s.finished, payload)
	s.mu.Unlock()
	return true
}

// TestVerifyPoolOrderWhenLaterWindowsFinishFirst makes every window cheaper
// than the one before it, so with four workers the later of any four windows
// in flight is verified first. Out must still carry the envelopes in arrival
// order, and the windows must really have been verified side by side.
func TestVerifyPoolOrderWhenLaterWindowsFinishFirst(t *testing.T) {
	const (
		window  = 4
		windows = 8
		total   = window * windows
	)
	in := make(chan *types.Envelope, total)
	sent := make([]*types.Envelope, total)
	for i := range sent {
		cost := byte(2 * (windows - i/window)) // ms per envelope: 16 in the first window, 2 in the last
		sent[i] = &types.Envelope{Type: types.MsgPrepare, From: 1, Payload: []byte{cost, byte(i)}, Sig: []byte{1}}
		in <- sent[i]
	}
	// The inbox is full before the pool starts, so every turn takes a full
	// window and the windows are the consecutive fours.
	v := &stubVerifier{}
	p := NewVerifyPool(v, in, 4, 8, window)
	defer p.Close()

	for i, want := range sent {
		select {
		case env := <-p.Out():
			if env != want {
				t.Fatalf("envelope %d emitted out of order", i)
			}
			if ok, known := env.Auth(); !known || !ok {
				t.Fatalf("envelope %d: verdict %v (known %v), want true", i, ok, known)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pool stalled after %d envelopes", i)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.maxAtOne < 2 {
		t.Fatalf("at most %d verification at a time: windows are not verified in parallel", v.maxAtOne)
	}
	overtook := false
	for i := 1; i < len(v.finished); i++ {
		if v.finished[i][1] < v.finished[i-1][1] {
			overtook = true
		}
	}
	if !overtook {
		t.Fatal("no later envelope was verified before an earlier one: the test did not exercise reordering")
	}
}

// closeWithin fails the test unless p.Close returns within a second.
func closeWithin(t *testing.T, p *VerifyPool, state string) {
	t.Helper()
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("Close did not return within a second with the pool %s", state)
	}
}

// TestVerifyPoolCloseFromEveryBlockedState stops a pool whose workers are
// parked at each of the places they can park.
func TestVerifyPoolCloseFromEveryBlockedState(t *testing.T) {
	k := NewMACKeyring()
	if err := k.Generate(1, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}

	t.Run("idle at the inbox", func(t *testing.T) {
		// One worker holds the turn at the empty inbox, the rest wait for it.
		p := NewVerifyPool(k, make(chan *types.Envelope), 4, 4, 4)
		closeWithin(t, p, "idle")
	})

	t.Run("verdicts ready, Out unread", func(t *testing.T) {
		// Out fills; one worker blocks sending to it, the others hold verified
		// windows and wait for their emission turn.
		const depth = 2
		in := make(chan *types.Envelope, 64)
		for i := 0; i < cap(in); i++ {
			in <- &types.Envelope{From: 1, Payload: []byte{byte(i)}, Sig: []byte{1}}
		}
		p := NewVerifyPool(k, in, 4, depth, 4)
		for deadline := time.Now().Add(5 * time.Second); len(p.Out()) < depth; {
			if time.Now().After(deadline) {
				t.Fatal("Out never filled")
			}
			time.Sleep(time.Millisecond)
		}
		closeWithin(t, p, "blocked on Out")
	})

	t.Run("mid-verify", func(t *testing.T) {
		v := &stubVerifier{entered: make(chan struct{}, 8)}
		in := make(chan *types.Envelope, 8)
		for i := 0; i < cap(in); i++ {
			in <- &types.Envelope{From: 1, Payload: []byte{100, byte(i)}, Sig: []byte{1}}
		}
		p := NewVerifyPool(v, in, 2, 4, 2)
		select {
		case <-v.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("no verification began")
		}
		closeWithin(t, p, "verifying")
	})
}

// TestVerifyPoolStartStopCycles builds and stops a thousand pools, some idle,
// some with traffic queued, some part-way through emitting: a benchmark run
// alone stops four hundred of them, so a Close that hangs once in a thousand
// is a failed run.
func TestVerifyPoolStartStopCycles(t *testing.T) {
	k := NewMACKeyring()
	if err := k.Generate(1, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	s, err := k.SignerFor(1)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("vote")
	sig := s.Sign(payload)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for cycle := 0; cycle < 1000; cycle++ {
			in := make(chan *types.Envelope, 8)
			p := NewVerifyPool(k, in, 1+cycle%4, 2, 1+cycle%3)
			queued := cycle % 7
			for i := 0; i < queued; i++ {
				in <- &types.Envelope{From: 1, Payload: payload, Sig: sig}
			}
			for i := 0; i < queued/2; i++ {
				<-p.Out()
			}
			p.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("a start/stop cycle hung")
	}
}
