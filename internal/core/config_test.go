package core

import (
	"reflect"
	"testing"
	"time"

	"sharper/internal/crypto"
	"sharper/internal/matrix"
	"sharper/internal/mempool"
	"sharper/internal/obs"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// checkDefaults asserts every default resolve fills into a Config that sets
// none of the knobs.
func checkDefaults(t *testing.T, c Config) {
	t.Helper()
	for _, d := range []struct {
		name      string
		got, want any
	}{
		{"IntraTimeout", c.IntraTimeout, 500 * time.Millisecond},
		{"LockTimeout", c.LockTimeout, 3 * time.Second},
		{"RetryTimeout", c.RetryTimeout, 250 * time.Millisecond},
		{"TickInterval", c.TickInterval, 5 * time.Millisecond},
		{"BatchSize", c.BatchSize, 1},
		{"BatchTimeout", c.BatchTimeout, 2 * time.Millisecond},
		{"MaxInFlight", c.MaxInFlight, 8},
		{"VerifyWindow", c.VerifyWindow, crypto.DefaultVerifyWindow},
		{"PipelineDepth", c.PipelineDepth, 32},
		{"TraceSample", c.TraceSample, obs.DefaultTraceSample},
		{"super-primary", !c.DisableSuperPrimary, true},
		{"Trace", c.Trace, false},
		{"DataDir", c.DataDir, ""},
	} {
		if d.got != d.want {
			t.Errorf("%s resolved to %v, want %v", d.name, d.got, d.want)
		}
	}
}

// TestConfigDefaults pins the defaults a zero Config resolves to, and that
// the environment CI's matrix sets changes none of them: only tests read it
// (internal/matrix), a deployment never does.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{Model: types.CrashOnly, Clusters: 2, F: 1}
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	checkDefaults(t, cfg)

	t.Run("environment", func(t *testing.T) {
		for _, v := range []string{"SHARPER_BATCH", "SHARPER_VERIFY_WINDOW"} {
			t.Setenv(v, "16")
		}
		t.Setenv("SHARPER_PERSIST", "always")
		t.Setenv("SHARPER_TRACE", "1")
		t.Setenv("SHARPERD_DEBUG", "1")
		d, err := NewDeployment(Config{Model: types.CrashOnly, Clusters: 2, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		if d.DataDir() != "" {
			t.Fatalf("DataDir() = %q under SHARPER_PERSIST, want in-memory", d.DataDir())
		}
		for _, n := range d.Nodes() {
			checkDefaults(t, *n.cfg.Config)
			if n.cfg.Storage != nil || n.cross.ring.Enabled() {
				t.Fatalf("%s: storage or a trace ring switched on by the environment", n.ID())
			}
		}
	})
}

// TestProcessNodeMatchesDeployment builds one replica both ways — alone, as a
// sharperd replica process does, and inside a whole deployment — from one
// Config, and requires the same replica: an equal resolved configuration,
// keys the deployment's keyring accepts, and the knobs ProcessConfig could
// not carry.
func TestProcessNodeMatchesDeployment(t *testing.T) {
	cfg := Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 9,
		PipelineDepth: 5, Mempool: mempool.Config{MaxCount: 77},
	}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	id := d.Topo.Members(1)[2]
	fab := transport.New(transport.DefaultConfig(), d.Topo.ClusterOf)
	defer fab.Close()
	n, err := NewProcessNode(cfg, id, fab)
	if err != nil {
		t.Fatal(err)
	}
	in := d.Node(id)

	if !reflect.DeepEqual(*n.cfg.Config, *in.cfg.Config) {
		t.Fatalf("process node resolved %+v, deployment node %+v", *n.cfg.Config, *in.cfg.Config)
	}
	if n.cfg.Cluster != in.cfg.Cluster || n.cfg.ClusterModel != in.cfg.ClusterModel {
		t.Fatalf("identity differs: cluster %s/%s model %s/%s",
			n.cfg.Cluster, in.cfg.Cluster, n.cfg.ClusterModel, in.cfg.ClusterModel)
	}
	payload := []byte("one trusted setup")
	if !d.Keyring.Verify(id, payload, n.cfg.Signer.Sign(payload)) {
		t.Fatal("the process node's signature does not verify under the deployment's keyring")
	}
	if got := n.gw.pool.Config().MaxCount; got != 77 {
		t.Fatalf("process node's mempool MaxCount = %d, want 77", got)
	}
	if n.exec.limit != 5 {
		t.Fatalf("process node's pipeline depth = %d, want 5", n.exec.limit)
	}
}

// TestMatrixApplied proves the matrix job took effect: a deployment built
// through the tests' helper carries the job's batch size, verify window,
// durability and tracing.
func TestMatrixApplied(t *testing.T) {
	d, err := testDeployment(t, Config{Model: types.CrashOnly, Clusters: 2, F: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	n := d.Nodes()[0]
	if matrix.Batch > 0 && n.cfg.BatchSize != matrix.Batch {
		t.Errorf("batch size %d under SHARPER_BATCH=%d", n.cfg.BatchSize, matrix.Batch)
	}
	if matrix.VerifyWindow > 0 && n.cfg.VerifyWindow != matrix.VerifyWindow {
		t.Errorf("verify window %d under SHARPER_VERIFY_WINDOW=%d", n.cfg.VerifyWindow, matrix.VerifyWindow)
	}
	if durable := d.DataDir() != "" && n.cfg.Storage != nil; durable != matrix.Persist {
		t.Errorf("durable storage %v, SHARPER_PERSIST on: %v", durable, matrix.Persist)
	}
	if matrix.Persist && n.cfg.Sync != matrix.Sync {
		t.Errorf("sync policy %v under SHARPER_PERSIST, want %v", n.cfg.Sync, matrix.Sync)
	}
	if n.cross.ring.Enabled() != matrix.Trace {
		t.Errorf("trace ring on: %v, SHARPER_TRACE set: %v", n.cross.ring.Enabled(), matrix.Trace)
	}
}
