package core

import (
	"testing"
	"time"

	"sharper/internal/types"
)

// TestTraceRequestRespondsWithRing asserts the debug trace-fetch protocol a
// divergence hunt relies on: a replica running with Config.Trace answers a
// MsgTraceRequest with its protocol-event ring, over the ordinary fabric,
// so sharperd -drive can dump every process's ring when the wire audit
// fails.
func TestTraceRequestRespondsWithRing(t *testing.T) {
	d, err := testDeployment(t, Config{Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 42, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)

	// Commit one transfer so the Paxos engines record events.
	c := d.NewClient()
	c.Timeout = 5 * time.Second
	if _, _, err := c.Transfer([]types.Op{{From: d.Shards.AccountInShard(0, 0), To: d.Shards.AccountInShard(0, 1), Amount: 1}}); err != nil {
		t.Fatal(err)
	}

	auditID := types.ClientIDBase + 77_777
	inbox := d.Net.Register(auditID)
	target := d.Topo.Members(0)[0]
	d.Net.Send(target, &types.Envelope{Type: types.MsgTraceRequest, From: auditID})

	deadline := time.After(5 * time.Second)
	for {
		select {
		case env := <-inbox:
			if env.Type != types.MsgTraceResponse {
				continue
			}
			dump, err := types.DecodeTraceDump(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if dump.Node != target {
				t.Fatalf("trace dump names node %s, want %s", dump.Node, target)
			}
			if len(dump.Lines) == 0 {
				t.Fatal("trace dump empty despite Config.Trace and committed traffic")
			}
			return
		case <-deadline:
			t.Fatal("no trace response")
		}
	}
}
