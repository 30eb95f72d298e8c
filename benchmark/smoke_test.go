package main

import (
	"os"
	"testing"
)

// smokeOptions runs a workload with 2 s of timed phases in a scratch
// directory of the test's own.
func smokeOptions(t *testing.T, name string, trace bool) runOptions {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	dir := t.TempDir()
	return runOptions{w: w, seed: 1, seconds: 2, trace: trace, scratch: dir, outDir: dir}
}

// The plumbing end to end on one workload with cross-shard traffic: set-up,
// both phases, the correctness gate, every declared end-to-end metric.
func TestSmokeUntraced(t *testing.T) {
	res, err := runUntraced(smokeOptions(t, "scaleout_crash", false))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	checkDeclared(t, "end_to_end", res.EndToEnd)
}

// The traced run on the durable TCP workload: recorder, counters, every probe,
// the budget, the trace file, every declared per-layer metric.
func TestSmokeTraced(t *testing.T) {
	o := smokeOptions(t, "durable_tcp", true)
	res, err := runTraced(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v, failed %d", res.Correct, res.Failed)
	}
	checkDeclared(t, "per_layer", res.PerLayer)
	if len(res.Budget) == 0 {
		t.Error("no budget rows")
	}
	if _, err := os.Stat(o.outDir + "/durable_tcp.trace.json"); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	for name, want := range map[string]float64{
		"crypto.verified_env_per_tx": 0, // crash model: nothing is signed
		"core.cross_parks_per_ktx":   0, // no cross-shard traffic
		"paxos.view_changes":         0,
	} {
		if got := res.PerLayer[name].Value; got != want {
			t.Errorf("%s = %v, want %v on durable_tcp", name, got, want)
		}
	}
	if res.PerLayer["storage.fsyncs_per_ktx"].Value <= 0 {
		t.Error("storage.fsyncs_per_ktx is 0 on the durable workload")
	}
}
