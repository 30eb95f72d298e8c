package ordering_test

import (
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/ledger"
	"sharper/internal/ordering"
	"sharper/internal/ordertest"
	"sharper/internal/types"
)

// TestContract runs every row of the ordering contract under every policy.
func TestContract(t *testing.T) {
	for _, p := range ordertest.Policies {
		for _, row := range ordertest.Contract {
			t.Run(p.Name+"/"+row.Name, func(t *testing.T) { ordertest.RunRow(t, p, row.Name) })
		}
	}
}

// TestProposalWithoutParentIsDropped names the row that pins the shared
// admission check on the parent list: before the two engines shared it, the
// crash one indexed PrevHashes[0] unchecked and a zero-parent ACCEPT from the
// primary panicked a backup.
func TestProposalWithoutParentIsDropped(t *testing.T) {
	for _, p := range []ordertest.Policy{ordertest.Crash(1), ordertest.Byz(1)} {
		t.Run(p.Name, func(t *testing.T) { ordertest.RunRow(t, p, "proposal without parent") })
	}
}

// TestSharedTraceEventsUnderBothPolicies: what the core does it also
// records, whichever policy votes — a trace dump of a Byzantine run
// shows restores, chain syncs, reservation parks, view-change escalations
// and recoveries under the same kinds as a crash run's.
func TestSharedTraceEventsUnderBothPolicies(t *testing.T) {
	for _, p := range []ordertest.Policy{ordertest.Crash(1), ordertest.Byz(1)} {
		t.Run(p.Name, func(t *testing.T) {
			h := ordertest.NewHarness(t, p, func(id types.NodeID, cfg *ordering.Config) {
				cfg.Trace = true
				if id == 1 {
					cfg.Reserved = func(seq uint64) bool { return seq == 2 }
				}
			})
			h.Propose(ordertest.Tx(1))
			h.Propose(ordertest.Tx(2)) // node 1 parks it: reserve-park

			restarted := h.NewEngine(2)
			txs := []*types.Transaction{ordertest.Tx(9)}
			restarted.Restore(0, 0, []consensus.DurableInstance{{
				Seq: 1, Parent: ledger.GenesisHash(), Digest: types.BatchDigest(txs), Txs: txs,
			}}, h.Now)
			head := types.HashBytes([]byte("synced"))
			restarted.SyncChainHead(1, head, h.Now)
			restarted.SyncChainHead(1, head, h.Now) // stale the second time

			// Every backup suspects the primary while nothing gets through,
			// so each escalates; then the network heals and some later view
			// assembles its quorum and adopts the reports.
			old := h.Members()[0]
			h.Drop = func(types.NodeID, *types.Envelope) bool { return true }
			for _, id := range h.Live(old) {
				h.Send(id, h.Engines[id].SuspectPrimary(h.Now))
			}
			h.Tick(250 * time.Millisecond)
			h.Drop = func(to types.NodeID, _ *types.Envelope) bool { return to == old }
			for i := 0; i < 2*len(h.Members()); i++ {
				h.Tick(250 * time.Millisecond)
			}

			seen := map[string]bool{}
			for _, ev := range restarted.DebugEvents() {
				seen[ev.Kind] = true
			}
			for _, e := range h.Engines {
				for _, ev := range e.DebugEvents() {
					seen[ev.Kind] = true
				}
			}
			for _, kind := range []string{"restore", "sync-head", "sync-head-stale", "reserve-park", "vc-escalate", "adopt-recovery"} {
				if !seen[kind] {
					t.Errorf("no %q event recorded", kind)
				}
			}
		})
	}
}
