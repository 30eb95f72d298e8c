package paxos_test

import (
	"testing"

	"sharper/internal/consensus"
	"sharper/internal/ordertest"
	"sharper/internal/types"
)

// The behaviour this constructor's engine shares with pbft.New's is the
// contract in internal/ordertest, which internal/ordering runs over every
// policy. The one-line tests below run single rows of it against paxos.New
// under the names the recorded test lists know them by.
func row(t *testing.T, name string) { ordertest.RunRow(t, ordertest.Crash(1), name) }

func TestNormalCaseCommit(t *testing.T)          { row(t, "normal case") }
func TestBatchedCommit(t *testing.T)             { row(t, "batched") }
func TestPipelinedProposals(t *testing.T)        { row(t, "pipelined") }
func TestCommitWithFCrashedBackups(t *testing.T) { row(t, "f silent members") }
func TestViewChangeOnPrimaryCrash(t *testing.T) {
	row(t, "view change carries a prepared value over")
}
func TestSuspectPrimary(t *testing.T) { row(t, "suspect primary") }
func TestSyncChainHeadResetsPipeline(t *testing.T) {
	row(t, "sync chain head orphans the dead pipeline")
}
func TestStaleProposalRejected(t *testing.T)     { row(t, "stale proposal") }
func TestNonPrimaryProposalIgnored(t *testing.T) { row(t, "non-primary proposal") }
func TestOutOfOrderDeliveryParksAndRecovers(t *testing.T) {
	row(t, "out of order parks and recovers")
}
func TestCommitBeforeAcceptBuffered(t *testing.T) { row(t, "commit before proposal") }

// TestDuplicateAcceptedNotDoubleCounted: the primary counts acceptors, not
// ACCEPTED messages — one backup's vote delivered three times is one vote.
func TestDuplicateAcceptedNotDoubleCounted(t *testing.T) {
	h := ordertest.NewHarness(t, ordertest.Crash(2), nil) // 5 nodes, quorum f+1 = 3
	primary := h.Members()[0]
	h.Engines[primary].Propose([]*types.Transaction{ordertest.Tx(1)}, h.Now)
	m := &types.ConsensusMsg{View: 0, Seq: 1, Digest: types.BatchDigest([]*types.Transaction{ordertest.Tx(1)}), Cluster: 0}
	commits := func(outs []consensus.Outbound) bool {
		for _, o := range outs {
			if o.Env.Type == types.MsgPaxosCommit {
				return true
			}
		}
		return false
	}
	// primary + 1 distinct backup = 2 < 3, however often that backup is heard.
	for i := 0; i < 3; i++ {
		if outs, _ := h.Deliver(primary, h.Envelope(types.MsgPaxosAccepted, h.Members()[1], m)); commits(outs) {
			t.Fatal("duplicate accepted votes reached quorum")
		}
	}
	// A second distinct backup completes the quorum.
	if outs, _ := h.Deliver(primary, h.Envelope(types.MsgPaxosAccepted, h.Members()[2], m)); !commits(outs) {
		t.Fatal("quorum of distinct votes did not commit")
	}
}
