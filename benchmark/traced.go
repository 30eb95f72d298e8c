package main

import (
	"fmt"
	"os"
	"time"
)

// runTraced is the run the per-layer metrics come from. It repeats the
// workload with the driver's span recorder on and counters read before and
// after, then runs the layer probes, and sets probe costs × calls per
// transaction against the measured CPU cost per transaction (the budget).
//
// Phases: [2-cluster reference, scaleout_crash only] → set-up (once) →
// warm-up → open (recorded) → closed, recorder off → closed, recorder on →
// audit → probes. The two closed phases give trace.overhead_share.
func runTraced(o runOptions) (*result, error) {
	res := newResult(o)
	rec := newRecorder()
	w := o.w

	refGoodput := 0.0
	if w.refClusters > 0 {
		ref, _, err := start(w, w.refClusters, o.seed, o.scratch, 0)
		if err != nil {
			return nil, fmt.Errorf("reference deployment: %w", err)
		}
		ref.warmup(share(o.seconds, warmupShare))
		p := ref.closedPhase("reference", w.refWindow, share(o.seconds, tracedRefShare), false)
		ref.quiesce()
		ref.halt()
		err = ref.audit()
		ref.stop()
		if err != nil {
			return nil, fmt.Errorf("reference deployment: %w", err)
		}
		rr := p.report()
		res.Phases = append(res.Phases, rr)
		refGoodput = rr.GoodputTPS
	}

	sys, took, err := start(w, w.clusters, o.seed, o.scratch, 1)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	res.SetupS = []float64{took.Seconds()}
	if sys.dataDir != "" {
		res.DataFS = fsType(sys.dataDir)
	}
	before := sys.readCounters()
	sys.drv.record(rec)
	watch := sys.watchGauges(rec)

	sys.warmup(share(o.seconds, warmupShare))
	open := sys.openPhase(share(o.seconds, tracedOpenShare), true)
	plain := sys.closedPhase("closed", w.window, share(o.seconds, tracedClosedShare), false)
	traced := sys.closedPhase("closed-recorded", w.window, share(o.seconds, tracedClosedShare), true)

	watch.stop()
	after := sys.readCounters()
	sys.quiesce()
	sys.halt()
	if err := sys.audit(); err != nil {
		return nil, err
	}
	res.Correct = true
	res.Stray = sys.drv.stray
	sched := sys.schedTotals()
	blocks, ledgerTxs := sys.ledgerShape()
	committedTotal := float64(len(sys.drv.done))

	probes, err := runProbes(w, o.seed, rec, o.scratch)
	if err != nil {
		return nil, err
	}

	or, pr, tr := open.report(), plain.report(), traced.report()
	res.Phases = append(res.Phases, or, pr, tr)
	res.Attempted = or.Attempted + pr.Attempted + tr.Attempted
	res.Failed = open.failed() + plain.failed() + traced.failed()

	m := probes
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	delta := func(name string) float64 { return after.value(name) - before.value(name) }
	perTx := func(v float64) float64 { return v / committedTotal }
	sent := after.sent - before.sent

	set("transport.msgs_per_tx", perTx(sent), "count")
	set("transport.bytes_per_tx", perTx(after.bytes-before.bytes), "B")
	set("transport.dropped_share", ratio(after.dropped-before.dropped, sent), "ratio")

	fsyncs, _, fsyncP50 := after.hist("storage_fsync_us")
	set("storage.fsyncs_per_ktx", 1000*perTx(fsyncs), "count")
	set("storage.wal_bytes_per_tx", perTx(delta("storage_wal_bytes")), "B")
	set("storage.fsync_p50_us", fsyncP50, "us")

	windows, occupied, _ := after.hist("verify_window_occupancy")
	set("crypto.verified_env_per_tx", perTx(delta("verify_envelopes")), "count")
	set("crypto.window_occupancy_mean", ratio(occupied, windows), "count")
	set("crypto.bisects", delta("verify_bisects"), "count")

	admitted, shedN, deduped := delta("mempool_admitted"), delta("mempool_shed"), delta("mempool_deduped")
	offered := admitted + shedN + deduped + delta("mempool_expired")
	_, _, ingestP50 := after.hist("mempool_ingest_us")
	set("mempool.admitted_per_tx", perTx(admitted), "count")
	set("mempool.shed_share", ratio(shedN, offered), "ratio")
	set("mempool.dedup_share", ratio(deduped, offered), "ratio")
	set("mempool.ingest_p50_us", ingestP50, "us")

	set("core.txs_per_block", ratio(ledgerTxs, blocks), "count")
	set("core.cross_parks_per_ktx", 1000*perTx(float64(sched.Parks)), "count")
	set("core.cross_withdraws_per_ktx", 1000*perTx(float64(sched.Withdraws)), "count")
	set("core.lock_expiries", float64(sched.LockExpiries), "count")
	set("core.pipeline_depth_max", watch.pipelineDepthMax, "count")
	set("core.apply_lag_max", watch.applyLagMax, "count")
	set("core.catchup_ms", sys.catchupMs(), "ms")

	set("paxos.view_changes", delta("paxos_view_changes"), "count")
	set("pbft.view_changes", delta("pbft_view_changes"), "count")
	set("paxos.straggler_drops", delta("paxos_straggler_drops"), "count")
	set("pbft.straggler_drops", delta("pbft_straggler_drops"), "count")

	// Cross-shard latency comes from the open phase where that has cross-shard
	// traffic, else from the closed phases (wan_failover).
	cross := open.latCross
	if len(cross) == 0 {
		cross = append(append(cross, plain.latCross...), traced.latCross...)
	}
	cross = sortedCopy(cross)
	set("driver.intra_p50_ms", percentile(sortedCopy(open.latIntra), 50), "ms")
	set("driver.cross_p50_ms", percentile(cross, 50), "ms")
	set("driver.cross_p99_ms", percentile(cross, 99), "ms")
	set("driver.quorum_wait_p50_ms", percentile(sortedCopy(open.quorumWait), 50), "ms")
	set("driver.retransmits_per_ktx", 1000*ratio(float64(open.retransmits+plain.retransmits+traced.retransmits), float64(res.Attempted)), "count")
	set("driver.outstanding_max", float64(max(open.outMax, plain.outMax, traced.outMax)), "count")
	set("driver.max_late_ms", or.MaxLateMs, "ms")
	set("driver.failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	set("driver.unavailable_ms", open.unavailableMs(), "ms")
	set("driver.commit_p99_ms", or.P99AllMs, "ms")
	set("driver.commit_p99_9_ms", or.P999AllMs, "ms")
	set("driver.scaleout_ratio", ratio(pr.GoodputTPS, refGoodput), "ratio")

	set("runtime.allocs_per_tx", perTx(after.mallocs-before.mallocs), "count")
	set("runtime.gc_pause_ms", after.gcPauseMs-before.gcPauseMs, "ms")
	set("runtime.peak_rss_mb", peakRSSMiB(), "MiB")
	steal := stealShare(before.ticks, after.ticks)
	set("host.steal_share", steal, "ratio")
	set("trace.overhead_share", 1-ratio(tr.GoodputTPS, pr.GoodputTPS), "ratio")

	res.Budget = w.budget(m, sys.clusterSize())
	explained := 0.0
	for _, row := range res.Budget {
		explained += row.MsPerTx
	}
	set("budget.explained_share", ratio(explained, tr.CPUMsPerTx), "ratio")
	res.PerLayer = m
	res.Notes = map[string]float64{
		"closed goodput_tps, recorder off": pr.GoodputTPS,
		"closed goodput_tps, recorder on":  tr.GoodputTPS,
		"closed cpu_ms_per_tx":             tr.CPUMsPerTx,
		"reference goodput_tps":            refGoodput,
		"committed in the whole run":       committedTotal,
	}
	res.flagNoise(steal, or.MaxLateMs)
	if err := rec.write(o.outDir, w.name); err != nil {
		return nil, err
	}
	return res, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budgetRow is one layer's share of the CPU cost of a transaction: the probe's
// cost per call times how often the run made that call per committed
// transaction.
type budgetRow struct {
	Layer      string  `json:"layer"`
	CostNs     float64 `json:"cost_ns_per_call"`
	CallsPerTx float64 `json:"calls_per_tx"`
	MsPerTx    float64 `json:"ms_per_tx"`
}

// budget multiplies probe costs by per-transaction call counts. replicas is
// the cluster size: every replica of a cluster hashes, orders, appends,
// applies and (when durable) logs each of its blocks. What no row covers — the
// cross-shard engines, the node's event loop and executor, the simulated
// fabric's spinning dispatcher, garbage collection, the driver itself — is the
// unexplained remainder, 1 − budget.explained_share.
func (w workload) budget(m map[string]metric, replicas int) []budgetRow {
	v := func(name string) float64 { return m[name].Value }
	r := float64(replicas)
	perBlock := ratio(1, v("core.txs_per_block"))
	msgs := v("transport.msgs_per_tx")
	engine := "paxos"
	if w.byzantine {
		engine = "pbft"
	}
	rows := []budgetRow{
		{Layer: "types.submit_decode", CostNs: v("types.submit_decode_ns"), CallsPerTx: v("mempool.admitted_per_tx")},
		{Layer: "types.tx_digest", CostNs: v("types.tx_digest_ns"), CallsPerTx: r},
		{Layer: "types.block_hash", CostNs: v("types.block_hash_ns"), CallsPerTx: r * perBlock},
		{Layer: "mempool.admit+drain", CostNs: v("mempool.admit_ns") + v("mempool.drain_ns_per_tx"), CallsPerTx: v("mempool.admitted_per_tx")},
		{Layer: "mempool.mark_committed", CostNs: v("mempool.mark_committed_ns"), CallsPerTx: r},
		{Layer: engine + " (whole cluster)", CostNs: 1e3 * v(engine+".cpu_us_per_block"), CallsPerTx: perBlock},
		{Layer: "ledger.append", CostNs: v("ledger.append_ns_per_block"), CallsPerTx: r * perBlock},
		{Layer: "state.apply", CostNs: v("state.apply_ns_per_tx"), CallsPerTx: r},
	}
	if w.byzantine {
		// PBFT's inline verification is inside the pbft probe already; the
		// run verifies in the pool instead, so only signing is added here:
		// one signature per multicast, i.e. per (replicas−1) sends.
		rows = append(rows, budgetRow{Layer: "crypto.mac_sign", CostNs: v("crypto.mac_sign_ns"), CallsPerTx: ratio(msgs, r-1)})
	}
	if w.durable {
		rows = append(rows, budgetRow{Layer: "storage.accept+commit", CostNs: 1e3 * (v("storage.persist_accept_us") + v("storage.append_commit_us_per_block")), CallsPerTx: r * perBlock})
	}
	if w.fabric == fabricTCP {
		rows = append(rows,
			budgetRow{Layer: "types.envelope codec", CostNs: v("types.envelope_encode_ns") + v("types.envelope_decode_ns"), CallsPerTx: msgs},
			budgetRow{Layer: "crypto.frame_tag ×2", CostNs: 2 * v("crypto.frame_tag_ns"), CallsPerTx: msgs},
			budgetRow{Layer: "tcpnet.send", CostNs: v("tcpnet.send_ns_per_msg"), CallsPerTx: msgs},
		)
	} else {
		rows = append(rows, budgetRow{Layer: "transport.sim_send", CostNs: v("transport.sim_send_ns_per_msg"), CallsPerTx: msgs})
	}
	for i := range rows {
		rows[i].MsPerTx = rows[i].CostNs * rows[i].CallsPerTx / 1e6
	}
	return rows
}

func printBudget(w *os.File, rows []budgetRow) {
	fmt.Fprintln(w, "   budget: probe cost × calls per committed transaction")
	for _, r := range rows {
		fmt.Fprintf(w, "     %-26s %12.1f ns × %8.3f = %9.5f ms/tx\n", r.Layer, r.CostNs, r.CallsPerTx, r.MsPerTx)
	}
}

// clusterSize is the number of replicas per cluster.
func (s *system) clusterSize() int { return len(s.dep.Topo.Members(0)) }

// catchupMs is how long the restarted replica took to reach its cluster's
// chain head; 0 for workloads that restart nothing.
func (s *system) catchupMs() float64 {
	s.nodesMu.Lock()
	defer s.nodesMu.Unlock()
	return float64(s.catchup) / float64(time.Millisecond)
}
