//go:build !race

// Steady-state allocation regression for wire-frame assembly: building a
// complete authenticated frame (length prefix + destination + envelope +
// HMAC tag) into a reused buffer must not allocate — the pooled HMAC states
// and in-place tagging are what keep a writer wakeup at one buffer and one
// flush regardless of batch size. Excluded under the race detector, which
// adds its own allocations.

package tcpnet

import (
	"testing"

	"sharper/internal/types"
)

func TestAppendFrameAllocs(t *testing.T) {
	n, err := New(Config{Secret: testSecret}) // dial-only fabric: no sockets needed
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	env := &types.Envelope{
		Type:    types.MsgVote,
		From:    3,
		Payload: make([]byte, 256),
		Sig:     make([]byte, 32),
	}
	buf := make([]byte, 0, 4096)
	buf = n.appendFrame(buf, 7, env, nil) // warm the HMAC pool
	allocs := testing.AllocsPerRun(200, func() {
		buf = n.appendFrame(buf[:0], 7, env, nil)
	})
	if allocs > 0 {
		t.Fatalf("appendFrame allocates %.1f per frame in steady state (want 0)", allocs)
	}

	// The per-link session path must be allocation-free too.
	sess := n.auth.NewSession()
	buf = n.appendFrame(buf[:0], 7, env, sess)
	allocs = testing.AllocsPerRun(200, func() {
		buf = n.appendFrame(buf[:0], 7, env, sess)
	})
	if allocs > 0 {
		t.Fatalf("session appendFrame allocates %.1f per frame in steady state (want 0)", allocs)
	}
}
