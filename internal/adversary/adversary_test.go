package adversary

import (
	"math/rand"
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// rig: one byz cluster of 4 (nodes 0–3) plus a second cluster (4–7) for the
// cross-shard cells, over a simulated fabric wrapped for every node.
type rig struct {
	topo *consensus.Topology
	kr   *crypto.Keyring
	adv  *Adversary
	net  *transport.Network
	fabs map[types.NodeID]transport.Fabric
	in   map[types.NodeID]<-chan *types.Envelope
}

func newRig(t *testing.T) *rig {
	t.Helper()
	topo := consensus.UniformTopology(types.Byzantine, 2, 1)
	kr := crypto.NewKeyring()
	rng := rand.New(rand.NewSource(7))
	for _, id := range topo.AllNodes() {
		if err := kr.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
	}
	net := transport.New(transport.Config{}, func(id types.NodeID) (types.ClusterID, bool) {
		return topo.ClusterOf(id)
	})
	t.Cleanup(net.Close)
	r := &rig{topo: topo, kr: kr, adv: New(topo), net: net,
		fabs: make(map[types.NodeID]transport.Fabric),
		in:   make(map[types.NodeID]<-chan *types.Envelope)}
	for _, id := range topo.AllNodes() {
		r.fabs[id] = r.adv.Wrap(id, net)
		r.in[id] = r.fabs[id].Register(id)
	}
	return r
}

func (r *rig) signer(t *testing.T, id types.NodeID) crypto.Signer {
	t.Helper()
	s, err := r.kr.SignerFor(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (r *rig) signed(t *testing.T, typ types.MsgType, from types.NodeID, m *types.ConsensusMsg) *types.Envelope {
	t.Helper()
	payload := m.Encode(nil)
	return &types.Envelope{Type: typ, From: from, Payload: payload, Sig: r.signer(t, from).Sign(payload)}
}

// drain collects n envelopes for id or fails.
func (r *rig) drain(t *testing.T, id types.NodeID, n int, timeout time.Duration) []*types.Envelope {
	t.Helper()
	var out []*types.Envelope
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case env := <-r.in[id]:
			out = append(out, env)
		case <-deadline:
			t.Fatalf("node %d received %d of %d envelopes", id, len(out), n)
		}
	}
	return out
}

func (r *rig) assertQuiet(t *testing.T, id types.NodeID) {
	t.Helper()
	select {
	case env := <-r.in[id]:
		t.Fatalf("node %d unexpectedly received %s", id, env.Type)
	case <-time.After(20 * time.Millisecond):
	}
}

func tx(seq uint64) *types.Transaction {
	return &types.Transaction{
		ID: types.TxID{Client: types.ClientIDBase, Seq: seq}, Client: types.ClientIDBase,
		Ops: []types.Op{{From: 1, To: 2, Amount: int64(seq)}}, Involved: types.NewClusterSet(0),
	}
}

// TestEquivocateWitnessOverlap: the two conflicting variants go to
// overlapping halves; the witness in the overlap receives both, every
// signature is valid, and the two digests differ while binding one slot.
func TestEquivocateWitnessOverlap(t *testing.T) {
	r := newRig(t)
	r.adv.Compromise(0, r.signer(t, 0), Rule{Kind: Equivocate})
	txs := []*types.Transaction{tx(1), tx(2)}
	m := &types.ConsensusMsg{View: 0, Seq: 1, Digest: types.BatchDigest(txs), Cluster: 0, Txs: txs}
	r.fabs[0].Multicast([]types.NodeID{1, 2, 3}, r.signed(t, types.MsgPropose, 0, m))

	witness := r.drain(t, 2, 2, time.Second) // to[1] sits in both halves
	d := make(map[types.Hash]bool)
	for _, env := range witness {
		dm, err := types.DecodeConsensusMsg(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if dm.View != 0 || dm.Seq != 1 {
			t.Fatalf("variant rebound the slot: view=%d seq=%d", dm.View, dm.Seq)
		}
		if !r.kr.Verify(env.From, env.Payload, env.Sig) {
			t.Fatal("variant signature invalid")
		}
		if len(dm.Txs) < 2 || types.BatchDigest(dm.Txs) != dm.Digest {
			t.Fatal("multi-tx variant is not a valid proposal")
		}
		d[dm.Digest] = true
	}
	if len(d) != 2 {
		t.Fatalf("witness saw %d distinct digests, want 2", len(d))
	}
	one := r.drain(t, 1, 1, time.Second)[0] // first half: original only
	r.assertQuiet(t, 1)
	if dm, _ := types.DecodeConsensusMsg(one.Payload); dm.Digest != m.Digest {
		t.Fatal("first half did not receive the original")
	}
	if r.adv.Applied(0, Equivocate) == 0 {
		t.Fatal("equivocation not logged")
	}
}

func TestWithholdAndReplay(t *testing.T) {
	r := newRig(t)
	r.adv.Compromise(1, r.signer(t, 1),
		Rule{Kind: Withhold, Types: []types.MsgType{types.MsgVote}, Victims: []types.NodeID{3}},
		Rule{Kind: Replay, Types: []types.MsgType{types.MsgCommit}},
	)
	prep := r.signed(t, types.MsgVote, 1, &types.ConsensusMsg{View: 0, Seq: 1, Cluster: 0})
	r.fabs[1].Multicast([]types.NodeID{0, 2, 3}, prep)
	r.drain(t, 0, 1, time.Second)
	r.drain(t, 2, 1, time.Second)
	r.assertQuiet(t, 3) // victim starved of the vote

	com := r.signed(t, types.MsgCommit, 1, &types.ConsensusMsg{View: 0, Seq: 1, Cluster: 0})
	r.fabs[1].Send(0, com)
	got := r.drain(t, 0, 2, time.Second)
	if string(got[0].Payload) != string(got[1].Payload) {
		t.Fatal("replayed copies differ")
	}

	// An honest node through the same wrapper is untouched.
	r.fabs[2].Send(3, r.signed(t, types.MsgVote, 2, &types.ConsensusMsg{View: 0, Seq: 1, Cluster: 0}))
	r.drain(t, 3, 1, time.Second)
}

// TestStarveScopesToForeignClusters: a starved XPropose reaches only the
// offender's own cluster (which will grant and lock), never the other
// involved cluster; the withdrawal XAbort is suppressed; and once Limit
// rounds are exhausted the proposal flows everywhere again.
func TestStarveScopesToForeignClusters(t *testing.T) {
	r := newRig(t)
	r.adv.Compromise(0, r.signer(t, 0), Rule{Kind: Starve, Limit: 2})
	all := []types.NodeID{1, 2, 3, 4, 5, 6, 7}
	xp := r.signed(t, types.MsgXPropose, 0, &types.ConsensusMsg{View: 0, Seq: 1, Cluster: 0})
	r.fabs[0].Multicast(all, xp) // round 1: starved
	for _, id := range []types.NodeID{1, 2, 3} {
		r.drain(t, id, 1, time.Second)
	}
	for _, id := range []types.NodeID{4, 5, 6, 7} {
		r.assertQuiet(t, id)
	}
	// The withdrawal is suppressed while rounds remain — locks must ride
	// out the timeout.
	r.fabs[0].Send(4, r.signed(t, types.MsgXAbort, 0, &types.ConsensusMsg{View: 0, Seq: 1, Cluster: 0}))
	r.assertQuiet(t, 4)

	r.fabs[0].Multicast(all, xp) // round 2: starved, budget exhausted
	for _, id := range []types.NodeID{1, 2, 3} {
		r.drain(t, id, 1, time.Second)
	}
	r.assertQuiet(t, 4)

	r.fabs[0].Multicast(all, xp) // round 3 goes through everywhere
	for _, id := range all {
		r.drain(t, id, 1, time.Second)
	}
}

// TestVCSpamEmitsConflictingPairs: the spam pair carries two different chain
// heads for one height under valid signatures — exactly what the slasher's
// view-change detector proves.
func TestVCSpamEmitsConflictingPairs(t *testing.T) {
	r := newRig(t)
	r.adv.Compromise(3, r.signer(t, 3), Rule{Kind: VCSpam, Limit: 1})
	for i := 0; i < 4; i++ { // cadence: one pair per 4 trigger sends
		r.fabs[3].Send(0, r.signed(t, types.MsgVote, 3, &types.ConsensusMsg{View: 0, Seq: uint64(i), Cluster: 0}))
	}
	var spam []*types.Envelope
	for _, env := range r.drain(t, 0, 6, time.Second) { // 4 votes + 2 spam
		if env.Type == types.MsgViewChange {
			spam = append(spam, env)
		}
	}
	if len(spam) != 2 {
		t.Fatalf("got %d view-change spam envelopes, want 2", len(spam))
	}
	heads := make(map[types.Hash]bool)
	for _, env := range spam {
		if !r.kr.Verify(env.From, env.Payload, env.Sig) {
			t.Fatal("spam signature invalid")
		}
		vc, err := types.DecodeViewChange(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if vc.LastSeq != 0 {
			t.Fatalf("spam claims height %d, want 0", vc.LastSeq)
		}
		heads[vc.LastHash] = true
	}
	if len(heads) != 2 {
		t.Fatal("spam pair does not conflict")
	}
}

// TestTamperKeepsSignatureValid: the corrupted digest still verifies — the
// attack must get past authentication to test the digest check.
func TestTamperKeepsSignatureValid(t *testing.T) {
	r := newRig(t)
	r.adv.Compromise(0, r.signer(t, 0), Rule{Kind: Tamper, Victims: []types.NodeID{1}})
	txs := []*types.Transaction{tx(1)}
	m := &types.ConsensusMsg{View: 0, Seq: 1, Digest: types.BatchDigest(txs), Cluster: 0, Txs: txs}
	r.fabs[0].Multicast([]types.NodeID{1, 2}, r.signed(t, types.MsgPropose, 0, m))

	tampered := r.drain(t, 1, 1, time.Second)[0]
	if !r.kr.Verify(tampered.From, tampered.Payload, tampered.Sig) {
		t.Fatal("tampered envelope must carry a valid signature")
	}
	dm, err := types.DecodeConsensusMsg(tampered.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Digest == m.Digest || dm.Digest == types.BatchDigest(dm.Txs) {
		t.Fatal("digest not corrupted")
	}
	clean := r.drain(t, 2, 1, time.Second)[0]
	if dm2, _ := types.DecodeConsensusMsg(clean.Payload); dm2.Digest != m.Digest {
		t.Fatal("non-victim received a tampered envelope")
	}
}

// TestTamperSparesCrashClusterProposals: the ordering kinds no longer name
// their protocol, so Tamper's default scope reads the sender's model. A
// crash-cluster node's proposal passes untouched, as it did when the crash
// policy spoke kinds of its own; a Byzantine-cluster node's is tampered.
func TestTamperSparesCrashClusterProposals(t *testing.T) {
	r := newRig(t)
	cl := r.topo.Clusters[1]
	cl.Model, cl.ModelSet = types.CrashOnly, true
	r.topo.Clusters[1] = cl
	r.adv.Compromise(4, r.signer(t, 4), Rule{Kind: Tamper})
	r.adv.Compromise(0, r.signer(t, 0), Rule{Kind: Tamper})
	txs := []*types.Transaction{tx(1)}
	for _, c := range []struct {
		from     types.NodeID
		to       []types.NodeID
		tampered bool
	}{{4, []types.NodeID{5, 6, 7}, false}, {0, []types.NodeID{1, 2, 3}, true}} {
		cluster, _ := r.topo.ClusterOf(c.from)
		m := &types.ConsensusMsg{View: 0, Seq: 1, Digest: types.BatchDigest(txs), Cluster: cluster, Txs: txs}
		env := r.signed(t, types.MsgPropose, c.from, m)
		r.fabs[c.from].Multicast(c.to, env)
		for _, id := range c.to {
			got := r.drain(t, id, 1, time.Second)[0]
			if changed := string(got.Payload) != string(env.Payload); changed != c.tampered {
				t.Fatalf("proposal from node %d to %d: tampered=%v, want %v", c.from, id, changed, c.tampered)
			}
		}
	}
	if n := r.adv.Applied(4, Tamper); n != 0 {
		t.Fatalf("tamper fired %d times on a crash-cluster sender", n)
	}
}
