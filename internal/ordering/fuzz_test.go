package ordering_test

import (
	"testing"

	"sharper/internal/ledger"
	"sharper/internal/ordertest"
	"sharper/internal/types"
)

// FuzzOrderingStep steps one arbitrary payload, under every message type an
// intra-shard engine can be handed, into nodes that hold an undecided
// proposal at slot 1 — as that view's primary would send it and as a backup
// would, each payload under both policies, correctly signed where the policy
// signs (the bytes are hostile, the sender is who it says). The engine must
// not panic, and one node's word must not decide a slot: the clusters are
// sized so that a quorum needs three members, and the target has heard at
// most itself. The one message that legitimately decides alone is the crash
// policy's COMMIT from the primary, which *is* the primary's report of a
// quorum — and then only the value the target already holds.
func FuzzOrderingStep(f *testing.F) {
	kinds := []types.MsgType{
		types.MsgPaxosAccept, types.MsgPaxosAccepted, types.MsgPaxosCommit,
		types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit,
		types.MsgViewChange, types.MsgNewView,
	}
	good := ordertest.ProposalMsg(0, 2, ledger.GenesisHash(), ordertest.Tx(2))
	noParent := *good
	noParent.PrevHashes = nil
	vote := &types.ConsensusMsg{Seq: 1, Digest: types.BatchDigest([]*types.Transaction{ordertest.Tx(1)}),
		PrevHashes: []types.Hash{ledger.GenesisHash()}}
	vc := &types.ViewChange{NewView: 1, LastSeq: 7, Prepared: []types.PreparedInstance{{
		Seq: 1, Digest: vote.Digest, Txs: []*types.Transaction{ordertest.Tx(1)},
		Proof: []types.VoteProof{{Node: 1, Sig: []byte{1}}},
	}}}
	for kind := range kinds {
		for _, payload := range [][]byte{noParent.Encode(nil), good.Encode(nil), vote.Encode(nil), vc.Encode(nil), nil} {
			f.Add(uint8(kind), true, payload)
			f.Add(uint8(kind), false, payload)
		}
	}

	f.Fuzz(func(t *testing.T, kind uint8, fromPrimary bool, payload []byte) {
		msgType := kinds[int(kind)%len(kinds)]
		for _, p := range []ordertest.Policy{ordertest.Crash(2), ordertest.Byz(1)} {
			h := ordertest.NewHarness(t, p, nil)
			primary, backup := h.Members()[0], h.Members()[1]
			h.Launch(primary, ordertest.Tx(1))
			for _, env := range h.Held(backup) {
				if env.Type == p.Proposal {
					h.Deliver(backup, env) // the backup has voted; nobody has heard it
				}
			}
			h.Drop = func(types.NodeID, *types.Envelope) bool { return true }

			sender, targets := h.Members()[2], []types.NodeID{primary, backup}
			if fromPrimary {
				sender, targets = primary, []types.NodeID{backup}
			}
			env := h.Sign(&types.Envelope{Type: msgType, From: sender, Payload: payload})
			for _, to := range targets {
				h.Deliver(to, env)
				h.Deliver(to, env) // a duplicate is one voice, not two
				decs := h.Decided[to]
				if len(decs) == 0 {
					continue
				}
				if !(p.Model == types.CrashOnly && fromPrimary && msgType == types.MsgPaxosCommit) {
					t.Fatalf("%s: one %v from node %s decided %d slots at node %s", p.Name, msgType, sender, len(decs), to)
				}
				if len(decs) != 1 || decs[0].Seq != 1 || decs[0].Block.Txs[0].ID.Seq != 1 {
					t.Fatalf("%s: the primary's COMMIT decided something other than the value held at slot 1", p.Name)
				}
			}
		}
	})
}
