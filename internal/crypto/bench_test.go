package crypto

import (
	"math/rand"
	"testing"

	"sharper/internal/types"
)

// benchEnvelopes is a ring of signed 128-byte votes from four senders in
// rotation (one PBFT cluster at f = 1), with the keyring that verifies them.
func benchEnvelopes(b *testing.B, auth Authenticator, n int) []*types.Envelope {
	b.Helper()
	const senders = 4
	rng := rand.New(rand.NewSource(11))
	signers := make([]Signer, senders)
	for i := range signers {
		id := types.NodeID(i + 1)
		if err := auth.Generate(id, rng); err != nil {
			b.Fatal(err)
		}
		s, err := auth.SignerFor(id)
		if err != nil {
			b.Fatal(err)
		}
		signers[i] = s
	}
	envs := make([]*types.Envelope, n)
	for i := range envs {
		payload := make([]byte, 128)
		rng.Read(payload)
		envs[i] = &types.Envelope{
			Type: types.MsgPrepare, From: types.NodeID(i%senders + 1),
			Payload: payload, Sig: signers[i%senders].Sign(payload),
		}
	}
	return envs
}

// BenchmarkVerifyPool measures one pool as a node runs it (default workers,
// depth and window), per envelope. trickle keeps a single envelope in flight
// — inbox to Out and back before the next is sent —, which is the open phase
// of a benchmark run, where windows hold 1.6 envelopes on average and the
// cost is hand-offs and wake-ups; flood fills the inbox before it drains Out,
// so every window is full and the cost is the MACs or signatures themselves
// plus, for MACs on an otherwise idle host, however long an idle core takes
// to wake (DESIGN.md, Hot path, "What the turn costs").
func BenchmarkVerifyPool(b *testing.B) {
	backends := []struct {
		name string
		auth func() Authenticator
	}{
		{"mac", func() Authenticator { return NewMACKeyring() }},
		{"ed25519", func() Authenticator { return NewKeyring() }},
	}
	const inbox = 256
	for _, be := range backends {
		// start builds the keyring, a ring of signed envelopes and a pool on
		// an inbox that holds them all.
		start := func(b *testing.B) ([]*types.Envelope, chan *types.Envelope, *VerifyPool) {
			auth := be.auth()
			envs := benchEnvelopes(b, auth, inbox)
			in := make(chan *types.Envelope, inbox)
			p := NewVerifyPool(auth, in, 0, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			return envs, in, p
		}
		b.Run(be.name+"/trickle", func(b *testing.B) {
			envs, in, p := start(b)
			defer p.Close()
			for i := 0; i < b.N; i++ {
				in <- envs[i%inbox]
				<-p.Out()
			}
		})
		b.Run(be.name+"/flood", func(b *testing.B) {
			envs, in, p := start(b)
			defer p.Close()
			for sent := 0; sent < b.N; {
				burst := min(inbox, b.N-sent)
				for _, env := range envs[:burst] {
					in <- env
				}
				for i := 0; i < burst; i++ {
					<-p.Out()
				}
				sent += burst
			}
		})
	}
}

var benchVerdict bool

// BenchmarkMACVerify is one HMAC-SHA256 check of a 128-byte vote, the unit
// the engines pay when an envelope reaches them without a pool verdict.
func BenchmarkMACVerify(b *testing.B) {
	k := NewMACKeyring()
	envs := benchEnvelopes(b, k, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := envs[i%len(envs)]
		benchVerdict = k.Verify(env.From, env.Payload, env.Sig)
	}
}
