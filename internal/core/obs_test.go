package core

import (
	"testing"

	"sharper/internal/obs"
	"sharper/internal/types"
)

// traceDeployment runs a small crash deployment with every transaction
// traced, drives intra and cross traffic, and returns it quiesced.
func traceDeployment(t *testing.T, model types.FailureModel) *Deployment {
	t.Helper()
	d, err := testDeployment(t, Config{
		Model:       model,
		Clusters:    3,
		F:           1,
		Seed:        7,
		TraceSample: 1,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)
	c := d.NewClient()
	for i := 0; i < 6; i++ {
		if ok, _, err := c.Transfer(intraOps(d, 0)); err != nil || !ok {
			t.Fatalf("intra tx %d: ok=%v err=%v", i, ok, err)
		}
		if ok, _, err := c.Transfer(crossOps(d, 0, 1)); err != nil || !ok {
			t.Fatalf("cross tx %d: ok=%v err=%v", i, ok, err)
		}
	}
	waitQuiesce(t, d)
	return d
}

// collectTraces gathers completed traces fleet-wide, split by series.
func collectTraces(d *Deployment) (intra, cross []obs.TxTrace) {
	for _, n := range d.Nodes() {
		for _, tr := range n.Tracer().Completed() {
			if tr.Cross {
				cross = append(cross, tr)
			} else {
				intra = append(intra, tr)
			}
		}
	}
	return intra, cross
}

// checkMonotonic asserts every stamped stage is in lifecycle order and that
// the required stages are present.
func checkMonotonic(t *testing.T, tr obs.TxTrace, required []obs.Stage) {
	t.Helper()
	for _, s := range required {
		if tr.At[s] == 0 {
			t.Errorf("trace %v (cross=%v): stage %s never stamped", tr.ID, tr.Cross, s)
		}
	}
	prev := int64(0)
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		at := tr.At[s]
		if at == 0 {
			continue
		}
		if at < prev {
			t.Errorf("trace %v (cross=%v): stage %s at %d precedes previous stamp %d",
				tr.ID, tr.Cross, s, at, prev)
		}
		prev = at
	}
}

func TestTraceStagesMonotonicCrash(t *testing.T) {
	d := traceDeployment(t, types.CrashOnly)
	intra, cross := collectTraces(d)
	if len(intra) == 0 || len(cross) == 0 {
		t.Fatalf("expected both series traced, got intra=%d cross=%d", len(intra), len(cross))
	}
	intraStages := []obs.Stage{
		obs.StageIngest, obs.StageSeal, obs.StagePropose, obs.StagePrepared,
		obs.StageCommitted, obs.StagePersisted, obs.StageReplied,
	}
	for _, tr := range intra {
		checkMonotonic(t, tr, intraStages)
		if tr.At[obs.StageLockGrant] != 0 {
			t.Errorf("intra trace %v stamped lock_grant", tr.ID)
		}
	}
	crossStages := []obs.Stage{
		obs.StageIngest, obs.StageSeal, obs.StagePropose, obs.StageLockGrant,
		obs.StagePrepared, obs.StageCommitted, obs.StagePersisted, obs.StageReplied,
	}
	for _, tr := range cross {
		checkMonotonic(t, tr, crossStages)
	}
}

func TestTraceStagesMonotonicByzantine(t *testing.T) {
	d := traceDeployment(t, types.Byzantine)
	intra, cross := collectTraces(d)
	if len(intra) == 0 || len(cross) == 0 {
		t.Fatalf("expected both series traced, got intra=%d cross=%d", len(intra), len(cross))
	}
	for _, tr := range append(intra, cross...) {
		checkMonotonic(t, tr, []obs.Stage{
			obs.StageIngest, obs.StageCommitted, obs.StageReplied,
		})
	}
}

// TestFleetMetricsSnapshot checks the merged roll-up carries the series every
// layer registers, with the stage histograms fed by the tracer.
func TestFleetMetricsSnapshot(t *testing.T) {
	d := traceDeployment(t, types.CrashOnly)
	merged := d.MetricsSnapshot()
	if len(merged) == 0 {
		t.Fatal("merged snapshot empty")
	}
	byName := make(map[string]obs.Metric, len(merged))
	for _, m := range merged {
		byName[m.Name] = m
	}
	if c := byName["committed_txs"]; c.Value == 0 {
		t.Error("committed_txs not counted")
	}
	for _, name := range []string{"stage_intra_total_us", "stage_cross_total_us",
		"stage_cross_lock_grant_us"} {
		h, ok := byName[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty (ok=%v count=%d)", name, ok, h.Count)
		}
	}
	for _, name := range []string{"sched_grants", "sched_decides"} {
		if byName[name].Value == 0 {
			t.Errorf("gauge %s is zero", name)
		}
	}
	// The wire round-trip must preserve the snapshot (the driver's roll-up
	// path decodes exactly this).
	node := d.Nodes()[0]
	snap := node.Metrics().Snapshot()
	dump := &types.MetricsDump{Node: node.ID(), Metrics: obs.MetricsToWire(snap)}
	dec, err := types.DecodeMetricsDump(dump.Encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	back := obs.MetricsFromWire(dec.Metrics)
	if len(back) != len(snap) {
		t.Fatalf("wire round-trip lost metrics: %d != %d", len(back), len(snap))
	}
	for i := range snap {
		if back[i].Name != snap[i].Name || back[i].Kind != snap[i].Kind {
			t.Fatalf("metric %d mismatch: %+v vs %+v", i, back[i], snap[i])
		}
	}
}
