package slasher

import (
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// stubFabric hands out one buffered inbox per id and counts registrations.
type stubFabric struct {
	transport.Fabric
	inboxes map[types.NodeID]chan *types.Envelope
	regs    int
}

func (f *stubFabric) Register(id types.NodeID) <-chan *types.Envelope {
	f.regs++
	if f.inboxes[id] == nil {
		f.inboxes[id] = make(chan *types.Envelope, 8)
	}
	return f.inboxes[id]
}

// TestWitnessIndexesPerReceiver: the witness proves a conflict only when one
// receiver held both claims, skips crash-cluster senders, and hands a
// re-registering (restarted) replica the same teed inbox.
func TestWitnessIndexesPerReceiver(t *testing.T) {
	topo := &consensus.Topology{Model: types.Byzantine, Clusters: map[types.ClusterID]consensus.Cluster{
		0: {ID: 0, F: 1, Members: []types.NodeID{0, 1, 2, 3}, Model: types.Byzantine, ModelSet: true},
		1: {ID: 1, F: 1, Members: []types.NodeID{4, 5, 6}, Model: types.CrashOnly, ModelSet: true},
	}}
	kr := testKeyring(t, 0, 1, 2, 3, 4)
	w := NewWitness(topo, func(types.NodeID) SigVerifier { return kr })
	defer w.Close()
	inner := &stubFabric{inboxes: make(map[types.NodeID]chan *types.Envelope)}
	fab := w.Wrap(2, inner)
	in2 := fab.Register(2)
	if fab.Register(2) != in2 || inner.regs != 1 {
		t.Fatalf("re-registering replica 2 did not return the same teed inbox (%d inner registrations)", inner.regs)
	}
	in3 := w.Wrap(3, inner).Register(3)

	propose := func(from types.NodeID, cluster types.ClusterID, d string) *types.Envelope {
		return signedConsensus(t, kr, types.MsgPropose, from, &types.ConsensusMsg{
			View: 0, Seq: 1, Digest: types.HashBytes([]byte(d)), Cluster: cluster})
	}
	deliver := func(to types.NodeID, out <-chan *types.Envelope, env *types.Envelope) {
		t.Helper()
		inner.inboxes[to] <- env
		select {
		case got := <-out:
			if got != env {
				t.Fatal("tee delivered a different envelope")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("tee never delivered")
		}
	}

	// Node 0 equivocates across two receivers: neither held both claims.
	deliver(2, in2, propose(0, 0, "a"))
	deliver(3, in3, propose(0, 0, "b"))
	if got := w.Proofs(); len(got) != 0 {
		t.Fatalf("claims split across receivers produced %d proofs", len(got))
	}
	// Receiver 2 now holds both.
	deliver(2, in2, propose(0, 0, "b"))
	got := w.Proofs()
	if len(got) != 1 || got[0].Offender != 0 || got[0].Kind != FraudDoubleProposal {
		t.Fatalf("proofs = %v, want one double proposal against node 0", got)
	}
	if err := got[0].Verify(pubOnly(t, kr, 0)); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}

	// A crash-cluster sender's claims are never indexed.
	deliver(2, in2, propose(4, 1, "a"))
	deliver(2, in2, propose(4, 1, "b"))
	if n := w.Indexed(1); n != 0 {
		t.Fatalf("indexed %d claims from the crash cluster", n)
	}
	if n := w.Indexed(0); n != 2 {
		t.Fatalf("indexed %d claims from the Byzantine cluster, want 2 (one per receiver)", n)
	}
}
