package core

import (
	"testing"
	"time"

	"sharper/internal/types"
)

// TestTraceRequestRespondsWithRing asserts the operator-query protocol a
// driver relies on, over the ordinary fabric: a replica answers a MsgQuery
// of each kind with that kind's dump, naming itself — the trace kind with
// its protocol-event ring when it runs with Config.Trace, so sharperd
// -drive can dump every process's ring when the wire audit fails. A query
// of an unknown kind, or with no kind byte at all, gets no answer.
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
	ask := func(payload []byte, wait time.Duration) *types.Envelope {
		d.Net.Send(target, &types.Envelope{Type: types.MsgQuery, From: auditID, Payload: payload})
		deadline := time.After(wait)
		for {
			select {
			case env := <-inbox:
				if env.Type == types.MsgQueryResponse {
					return env
				}
			case <-deadline:
				return nil
			}
		}
	}

	for _, c := range []struct {
		kind types.QueryKind
		node func(body []byte) (types.NodeID, error)
	}{
		{types.QueryMetrics, func(b []byte) (types.NodeID, error) {
			d, err := types.DecodeMetricsDump(b)
			if err == nil && len(d.Metrics) == 0 {
				t.Error("metrics dump carries no metrics")
			}
			if err != nil {
				return 0, err
			}
			return d.Node, nil
		}},
		{types.QueryState, func(b []byte) (types.NodeID, error) {
			d, err := types.DecodeStateDigest(b)
			if err != nil {
				return 0, err
			}
			return d.Node, nil
		}},
		{types.QueryTrace, func(b []byte) (types.NodeID, error) {
			d, err := types.DecodeTraceDump(b)
			if err == nil && len(d.Lines) == 0 {
				t.Error("trace dump empty despite Config.Trace and committed traffic")
			}
			if err != nil {
				return 0, err
			}
			return d.Node, nil
		}},
	} {
		env := ask([]byte{byte(c.kind)}, 5*time.Second)
		if env == nil {
			t.Fatalf("kind %d: no query response", c.kind)
		}
		kind, body, err := types.DecodeQueryResponse(env.Payload)
		if err != nil || kind != c.kind {
			t.Fatalf("kind %d: response kind %d, err %v", c.kind, kind, err)
		}
		node, err := c.node(body)
		if err != nil {
			t.Fatalf("kind %d: %v", c.kind, err)
		}
		if node != target {
			t.Fatalf("kind %d: dump names node %s, want %s", c.kind, node, target)
		}
	}

	for _, payload := range [][]byte{{byte(types.QueryTrace) + 1}, {0}, nil, {byte(types.QueryTrace), 0}} {
		if env := ask(payload, 250*time.Millisecond); env != nil {
			t.Fatalf("query %x was answered", payload)
		}
	}
}
