package sharper_test

import (
	"strings"
	"testing"
	"time"

	"sharper"
)

// TestBatchSizeRejected pins the explicit Options validation: batches wider
// than the 64-bit cross-shard validity bitmap used to be silently capped;
// now they are an error at construction.
func TestBatchSizeRejected(t *testing.T) {
	_, err := sharper.New(sharper.WithMatrix(t, sharper.Options{
		Model:     sharper.CrashOnly,
		Clusters:  2,
		F:         1,
		BatchSize: sharper.MaxBatchSize + 1,
	}))
	if err == nil {
		t.Fatalf("BatchSize %d accepted", sharper.MaxBatchSize+1)
	}
	if !strings.Contains(err.Error(), "64") {
		t.Fatalf("error does not name the cap: %v", err)
	}

	net, err := sharper.New(sharper.WithMatrix(t, sharper.Options{
		Model:     sharper.CrashOnly,
		Clusters:  2,
		F:         1,
		BatchSize: sharper.MaxBatchSize,
	}))
	if err != nil {
		t.Fatalf("BatchSize %d rejected: %v", sharper.MaxBatchSize, err)
	}
	net.Close()
}

// TestTCPTransportOption runs the public API end to end over real loopback
// sockets: same Options surface, real wire underneath.
func TestTCPTransportOption(t *testing.T) {
	net, err := sharper.New(sharper.WithMatrix(t, sharper.Options{
		Model:     sharper.CrashOnly,
		Clusters:  2,
		F:         1,
		Transport: sharper.TransportTCP,
		Seed:      5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	c := net.NewClient()
	if res, err := c.Transfer(net.AccountInShard(0, 0), net.AccountInShard(0, 1), 10); err != nil || !res.Committed {
		t.Fatalf("intra-shard over TCP: %+v, %v", res, err)
	}
	res, err := c.Transfer(net.AccountInShard(0, 0), net.AccountInShard(1, 0), 10)
	if err != nil || !res.Committed {
		t.Fatalf("cross-shard over TCP: %+v, %v", res, err)
	}
	if !res.CrossShard {
		t.Fatal("transfer between shards not marked cross-shard")
	}
	// Verify needs a quiesced network: the initiator cluster replies to the
	// client before the other involved cluster's replicas finish applying
	// the decision, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := net.Verify()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger audit: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
