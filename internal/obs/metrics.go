package obs

// This file defines the small handle bundles the registry owner (a
// core.Node or a cmd-level runtime) passes into subsystems at construction.
// Each bundle is nil-receiver safe end to end: a nil bundle hands out nil
// handles, and nil handles ignore updates, so subsystems never gate their
// instrumentation on a "metrics enabled" flag.

// EngineMetrics instruments an intra-shard consensus engine (Paxos, PBFT,
// or the fastquorum baseline).
type EngineMetrics struct {
	ViewChanges    *Counter // view-change installations
	StragglerDrops *Counter // messages dropped for lagging behind the commit frontier
	Instances      *Gauge   // live consensus-instance map size
}

// NewEngineMetrics registers the engine series under the given prefix
// (e.g. "paxos"). A nil registry yields a nil bundle.
func NewEngineMetrics(r *Registry, prefix string) *EngineMetrics {
	if r == nil {
		return nil
	}
	return &EngineMetrics{
		ViewChanges:    r.Counter(prefix + "_view_changes"),
		StragglerDrops: r.Counter(prefix + "_straggler_drops"),
		Instances:      r.Gauge(prefix + "_instances"),
	}
}

// VC returns the view-change counter (nil-safe).
func (m *EngineMetrics) VC() *Counter {
	if m == nil {
		return nil
	}
	return m.ViewChanges
}

// Stragglers returns the straggler-drop counter (nil-safe).
func (m *EngineMetrics) Stragglers() *Counter {
	if m == nil {
		return nil
	}
	return m.StragglerDrops
}

// InstGauge returns the instance-map gauge (nil-safe).
func (m *EngineMetrics) InstGauge() *Gauge {
	if m == nil {
		return nil
	}
	return m.Instances
}

// VerifyMetrics instruments crypto.VerifyPool.
type VerifyMetrics struct {
	Windows      *Counter   // verification windows processed
	Envelopes    *Counter   // envelopes verified
	Bisects      *Counter   // window splits after a failed aggregate check
	Occupancy    *Histogram // envelopes per window
	VerifyMicros *Histogram // per-window verification latency
}

// NewVerifyMetrics registers the verify-pool series. Nil registry → nil.
func NewVerifyMetrics(r *Registry) *VerifyMetrics {
	if r == nil {
		return nil
	}
	return &VerifyMetrics{
		Windows:      r.Counter("verify_windows"),
		Envelopes:    r.Counter("verify_envelopes"),
		Bisects:      r.Counter("verify_bisects"),
		Occupancy:    r.Histogram("verify_window_occupancy"),
		VerifyMicros: r.Histogram("verify_latency_us"),
	}
}

// StoreMetrics instruments the durable storage layer.
type StoreMetrics struct {
	FsyncMicros *Histogram // fsync latency
	WALBytes    *Counter   // bytes appended to the WAL
	Checkpoints *Counter   // checkpoints taken
}

// NewStoreMetrics registers the storage series. Nil registry → nil.
func NewStoreMetrics(r *Registry) *StoreMetrics {
	if r == nil {
		return nil
	}
	return &StoreMetrics{
		FsyncMicros: r.Histogram("storage_fsync_us"),
		WALBytes:    r.Counter("storage_wal_bytes"),
		Checkpoints: r.Counter("storage_checkpoints"),
	}
}

// Fsync returns the fsync-latency histogram (nil-safe).
func (m *StoreMetrics) Fsync() *Histogram {
	if m == nil {
		return nil
	}
	return m.FsyncMicros
}

// WAL returns the WAL-bytes counter (nil-safe).
func (m *StoreMetrics) WAL() *Counter {
	if m == nil {
		return nil
	}
	return m.WALBytes
}

// Ckpt returns the checkpoint counter (nil-safe).
func (m *StoreMetrics) Ckpt() *Counter {
	if m == nil {
		return nil
	}
	return m.Checkpoints
}

// MempoolMetrics instruments the client-ingress gateway and its mempool.
type MempoolMetrics struct {
	Admitted     *Counter   // transactions admitted into the pending pool
	Deduped      *Counter   // submits dropped as duplicates (pending, in flight, or executed)
	Expired      *Counter   // submits rejected or swept for stale timestamps
	Shed         *Counter   // submits shed with Overloaded (pool at capacity)
	PendingBytes *Gauge     // encoded bytes pending + in flight
	PendingCount *Gauge     // transactions pending + in flight
	IngestMicros *Histogram // client timestamp → mempool admission latency
}

// NewMempoolMetrics registers the gateway/mempool series. Nil registry → nil.
func NewMempoolMetrics(r *Registry) *MempoolMetrics {
	if r == nil {
		return nil
	}
	return &MempoolMetrics{
		Admitted:     r.Counter("mempool_admitted"),
		Deduped:      r.Counter("mempool_deduped"),
		Expired:      r.Counter("mempool_expired"),
		Shed:         r.Counter("mempool_shed"),
		PendingBytes: r.Gauge("mempool_pending_bytes"),
		PendingCount: r.Gauge("mempool_pending_count"),
		IngestMicros: r.Histogram("mempool_ingest_us"),
	}
}
