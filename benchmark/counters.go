package main

import (
	"runtime"
	"sync"
	"time"
)

// counters is one reading of everything the run counters are derived from:
// the fabric(s), the nodes' metric registries, the Go runtime and the host.
type counters struct {
	sent, bytes, dropped float64 // fabric totals
	metrics              map[string]Metric
	mallocs              float64
	gcPauseMs            float64
	ticks                cpuTicks
}

// readCounters snapshots the live counters. Safe while the deployment runs:
// fabric stats and registries are atomics.
func (s *system) readCounters() counters {
	c := counters{metrics: make(map[string]Metric), ticks: readCPUTicks()}
	// The simulated fabric is one shared network; under TCP every replica
	// has its own fabric and the driver's dial-only one comes on top.
	seen := map[*FabricStats]bool{}
	add := func(st *FabricStats) {
		if st == nil || seen[st] {
			return
		}
		seen[st] = true
		c.sent += float64(st.Sent.Load())
		c.bytes += float64(st.Bytes.Load())
		c.dropped += float64(st.Dropped.Load())
	}
	add(s.dep.Net.Stats())
	s.nodesMu.Lock()
	for _, id := range s.dep.Topo.AllNodes() {
		add(s.dep.NodeFabric(id).Stats())
	}
	snap := s.dep.MetricsSnapshot()
	s.nodesMu.Unlock()
	for _, m := range snap {
		c.metrics[m.Name] = m
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = float64(ms.Mallocs)
	c.gcPauseMs = float64(ms.PauseTotalNs) / 1e6
	return c
}

// value is the counter or gauge value of a metric, 0 if absent.
func (c counters) value(name string) float64 { return float64(c.metrics[name].Value) }

// hist returns a histogram's observation count, sum and median.
func (c counters) hist(name string) (count, sum, p50 float64) {
	m, ok := c.metrics[name]
	if !ok || m.Kind != KindHistogram {
		return 0, 0, 0
	}
	return float64(m.Count), float64(m.Sum), float64(m.Quantile(0.5))
}

// gaugeWatch samples, once a second while a traced run is under way, the
// gauges whose maximum matters (pipeline depth, apply lag — per node, not
// summed) and hands every sample to the recorder.
type gaugeWatch struct {
	pipelineDepthMax, applyLagMax float64
	stop                          func()
}

func (s *system) watchGauges(rec *recorder) *gaugeWatch {
	w := &gaugeWatch{}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				vals := map[string]float64{}
				s.nodesMu.Lock()
				for _, n := range s.dep.Nodes() {
					for _, m := range n.Metrics().Snapshot() {
						switch m.Name {
						case "pipeline_depth":
							w.pipelineDepthMax = max(w.pipelineDepthMax, float64(m.Value))
						case "apply_lag":
							w.applyLagMax = max(w.applyLagMax, float64(m.Value))
						case "mempool_pending_count", "net_inbox_depth", "sched_leads_in_flight":
							vals[m.Name] += float64(m.Value)
						}
					}
				}
				s.nodesMu.Unlock()
				st := s.dep.Net.Stats()
				vals["fabric_sent"] = float64(st.Sent.Load())
				vals["cpu_ms"] = cpuMillis()
				vals["outstanding"] = float64(s.drv.outstanding())
				vals["pipeline_depth_max"] = w.pipelineDepthMax
				vals["apply_lag_max"] = w.applyLagMax
				rec.sample(now, vals)
			case <-quit:
				return
			}
		}
	}()
	w.stop = func() {
		close(quit)
		wg.Wait()
	}
	return w
}

// ledgerShape counts the blocks and transactions in one live replica's chain
// per cluster (a cross-shard block counts once per cluster that holds it).
func (s *system) ledgerShape() (blocks, txs float64) {
	for _, c := range s.dep.Topo.ClusterIDs() {
		for _, id := range s.dep.Topo.Members(c) {
			if s.crashed[id] {
				continue
			}
			for i, b := range s.dep.Node(id).View().Blocks() {
				if i == 0 {
					continue // genesis
				}
				blocks++
				txs += float64(len(b.Txs))
			}
			break
		}
	}
	return blocks, txs
}

// schedTotals sums the cross-shard scheduler counters of every node. Only
// valid on a halted system (Node.Counters reads loop-owned state).
func (s *system) schedTotals() SchedStats {
	var total SchedStats
	for _, n := range s.dep.Nodes() {
		total.Add(n.Counters())
	}
	return total
}
