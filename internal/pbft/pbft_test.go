package pbft_test

import (
	"testing"

	"sharper/internal/ledger"
	"sharper/internal/ordertest"
	"sharper/internal/types"
)

// The behaviour this constructor's engine shares with paxos.New's is the
// contract in internal/ordertest, which internal/ordering runs over every
// policy. The one-line tests below run single rows of it against pbft.New
// under the names the recorded test lists know them by.
func row(t *testing.T, name string) { ordertest.RunRow(t, ordertest.Byz(1), name) }

func TestNormalCaseCommit(t *testing.T)           { row(t, "normal case") }
func TestBatchedNormalCaseCommit(t *testing.T)    { row(t, "batched") }
func TestCommitWithFByzantineSilent(t *testing.T) { row(t, "f silent members") }
func TestViewChangeAfterPrimaryFailure(t *testing.T) {
	row(t, "suspect primary")
	row(t, "view change carries a prepared value over")
}
func TestSyncChainHeadOrphans(t *testing.T) { row(t, "sync chain head orphans the dead pipeline") }

// proposal is the PRE-PREPARE the view-0 primary would sign for a batch at
// slot 1 on the genesis head.
func proposal(h *ordertest.Harness, m *types.ConsensusMsg) *types.Envelope {
	return h.Envelope(types.MsgPrePrepare, h.Members()[0], m)
}

func TestForgedMessageRejected(t *testing.T) {
	h := ordertest.NewHarness(t, ordertest.Byz(1), nil)
	env := proposal(h, ordertest.ProposalMsg(0, 1, ledger.GenesisHash(), ordertest.Tx(1)))
	env.Sig = make([]byte, 64) // claims to be the primary, signs nothing valid
	if outs, decs := h.Deliver(h.Members()[1], env); len(outs) != 0 || len(decs) != 0 {
		t.Fatal("forged pre-prepare processed")
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	h := ordertest.NewHarness(t, ordertest.Byz(1), nil)
	m := ordertest.ProposalMsg(0, 1, ledger.GenesisHash(), ordertest.Tx(1))
	m.Digest = types.HashBytes([]byte("lie"))
	if outs, _ := h.Deliver(h.Members()[1], proposal(h, m)); len(outs) != 0 {
		t.Fatal("pre-prepare with mismatched digest answered")
	}
}

func TestEquivocatingPrimaryCannotForkCluster(t *testing.T) {
	h := ordertest.NewHarness(t, ordertest.Byz(1), nil)
	backups := h.Members()[1:]
	// Equivocate: tx 1 to two backups, tx 2 to the third.
	for i, tx := range []*types.Transaction{ordertest.Tx(1), ordertest.Tx(1), ordertest.Tx(2)} {
		h.Deliver(backups[i], proposal(h, ordertest.ProposalMsg(0, 1, ledger.GenesisHash(), tx)))
	}
	h.Pump()
	// No two nodes may decide different blocks at seq 1.
	committed := map[types.Hash]bool{}
	for _, decs := range h.Decided {
		for _, d := range decs {
			if d.Seq == 1 {
				committed[d.Block.Hash()] = true
			}
		}
	}
	if len(committed) > 1 {
		t.Fatal("equivocation forked the cluster")
	}
	// Nor may one node be talked out of its first binding.
	if outs, _ := h.Deliver(backups[0], proposal(h, ordertest.ProposalMsg(0, 1, ledger.GenesisHash(), ordertest.Tx(2)))); len(outs) != 0 {
		t.Fatal("a second pre-prepare for the same (view, slot) drew a vote")
	}
}

// TestTamperedBatchTxRejected: a Byzantine primary that alters one
// transaction inside a batch (keeping the advertised digest) is caught by
// the batch-digest check — the pre-prepare is dropped, exactly like the
// single-transaction digest-mismatch case.
func TestTamperedBatchTxRejected(t *testing.T) {
	h := ordertest.NewHarness(t, ordertest.Byz(1), nil)
	backup := h.Members()[1]
	honest := []*types.Transaction{ordertest.Tx(1), ordertest.Tx(2), ordertest.Tx(3)}
	tampered := []*types.Transaction{ordertest.Tx(1), ordertest.Tx(2), ordertest.Tx(3)}
	tampered[1].Ops[0].Amount += 1000 // inflate the middle transfer

	m := ordertest.ProposalMsg(0, 1, ledger.GenesisHash(), honest...)
	m.Txs = tampered
	if outs, decs := h.Deliver(backup, proposal(h, m)); len(outs) != 0 || len(decs) != 0 {
		t.Fatal("pre-prepare with a tampered batch transaction was processed")
	}
	// The honest batch under the same digest is accepted.
	m.Txs = honest
	if outs, _ := h.Deliver(backup, proposal(h, m)); len(outs) == 0 {
		t.Fatal("honest batch with matching digest was not answered")
	}
}
