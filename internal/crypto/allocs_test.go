//go:build !race

package crypto

import (
	"testing"

	"sharper/internal/types"
)

// TestVerifyPoolAndMACVerifyDoNotAllocate pins the hot path's allocation
// count at zero: an envelope through a warm pool, alone or in a burst of full
// windows, and a MACKeyring.Verify on its pooled session. AllocsPerRun counts
// the whole process, so the pool's workers are included. (The race detector
// allocates on its own account; the build tag keeps it out.)
func TestVerifyPoolAndMACVerifyDoNotAllocate(t *testing.T) {
	k := NewMACKeyring()
	const burst = 64
	envs := makeSignedWindow(t, k, burst, 4)
	in := make(chan *types.Envelope, burst)
	p := NewVerifyPool(k, in, 0, 0, 0)
	defer p.Close()

	one := func() {
		in <- envs[0]
		<-p.Out()
	}
	flood := func() {
		for _, env := range envs {
			in <- env
		}
		for range envs {
			<-p.Out()
		}
	}
	for i := 0; i < 8; i++ { // every worker has sized its window and drawn its sessions
		flood()
	}
	if n := testing.AllocsPerRun(1000, one); n != 0 {
		t.Errorf("one envelope through a warm pool: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, flood); n != 0 {
		t.Errorf("%d envelopes through a warm pool: %v allocations, want 0", burst, n)
	}
	env := envs[1]
	if n := testing.AllocsPerRun(1000, func() { k.Verify(env.From, env.Payload, env.Sig) }); n != 0 {
		t.Errorf("MACKeyring.Verify: %v allocations, want 0", n)
	}
}
