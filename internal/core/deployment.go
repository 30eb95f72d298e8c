package core

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/obs"
	"sharper/internal/state"
	"sharper/internal/transport"
	"sharper/internal/transport/tcpnet"
	"sharper/internal/types"
)

// Deployment is a running SharPer network: clusters of nodes over a message
// fabric (simulated or TCP), plus factories for clients.
type Deployment struct {
	cfg  Config
	Topo *consensus.Topology
	// Net is the fabric clients attach to: the shared simulated network, or
	// the dial-only client fabric of a TCP deployment.
	Net     transport.Fabric
	Keyring crypto.Provider
	Shards  state.ShardMap

	// fabrics holds each replica's own fabric under TransportTCP (every
	// node listens on its own loopback socket); empty under TransportSim,
	// where all nodes share Net.
	fabrics          map[types.NodeID]*tcpnet.Net
	nodes            map[types.NodeID]*Node
	clientsConnected atomic.Bool // NewClient may run concurrently
	started          bool

	// Genesis seeding parameters, remembered so RestartNode can rebuild a
	// replica's genesis state before recovery replays over it.
	seedPerShard int
	seedBalance  int64
}

// NodeDataDir is where one replica's storage lives under a deployment's
// base directory — the single definition of the on-disk layout, shared
// with sharperd's per-process replicas.
func NodeDataDir(base string, id types.NodeID) string {
	return filepath.Join(base, fmt.Sprintf("node-%d", id))
}

// ShapeTune translates a topology-level shaping matrix into per-fabric
// tcpnet link configuration: each replica shapes its outbound link to every
// peer by the two clusters' pair entry, the client driver's links and the
// replicas' reply routes take the Client shape. Returns nil (leave fabrics
// untouched) when shaping is nil — the single translation point shared by
// in-process TCP deployments and sharperd's one-process-per-replica mode.
func ShapeTune(sh *transport.Shaping, seed int64, clusterOf func(types.NodeID) (types.ClusterID, bool)) func(*tcpnet.Config) {
	if sh == nil {
		return nil
	}
	return func(tc *tcpnet.Config) {
		tc.ShapeSeed = seed
		// Dial-only fabrics with no listener are client drivers; their
		// endpoints live outside every cluster.
		isClient := tc.Listener == nil && tc.ListenAddr == ""
		selfCluster, located := types.ClusterID(0), false
		if !isClient {
			selfCluster, located = clusterOf(tc.Self)
		}
		shape := make(map[types.NodeID]transport.LinkShape, len(tc.Peers))
		for id := range tc.Peers {
			if id == tc.Self && !isClient {
				continue
			}
			var s transport.LinkShape
			if isClient || !located {
				s = sh.Client
			} else if pc, ok := clusterOf(id); ok {
				s = sh.For(selfCluster, pc)
			} else {
				s = sh.Default
			}
			if !s.IsZero() {
				shape[id] = s
			}
		}
		if len(shape) > 0 {
			tc.Shape = shape
		}
		if cs := sh.Client; !cs.IsZero() {
			tc.ClientShape = &cs
		}
	}
}

// NewDeployment resolves the configuration and builds all nodes (stopped).
func NewDeployment(cfg Config) (*Deployment, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	d := &Deployment{
		cfg:    cfg,
		Topo:   topo,
		Shards: state.ShardMap{NumShards: len(topo.Clusters)},
		nodes:  make(map[types.NodeID]*Node),
	}
	switch cfg.Transport {
	case TransportSim:
		d.Net = transport.New(cfg.Network, topo.ClusterOf)
	case TransportTCP:
		secret := crypto.WireKey(fmt.Sprintf("loopback-%d", cfg.Seed))
		fabrics, clientFab, err := tcpnet.Loopback(topo.AllNodes(), secret, ShapeTune(cfg.Shaping, cfg.Seed, topo.ClusterOf))
		if err != nil {
			return nil, err
		}
		d.Net, d.fabrics = clientFab, fabrics
	default:
		return nil, fmt.Errorf("core: unknown transport kind %d", cfg.Transport)
	}
	keys, err := DeriveKeys(cfg)
	if err != nil {
		return nil, err
	}
	d.Keyring = keys
	for _, id := range topo.AllNodes() {
		fab := d.NodeFabric(id)
		if cfg.WrapFabric != nil {
			fab = cfg.WrapFabric(id, fab)
		}
		n, err := newReplica(&d.cfg, id, fab, keys, nil)
		if err != nil {
			// Release the stores already opened, each with a live flusher.
			d.closeStorages()
			return nil, err
		}
		registerSimLinkGauges(n.reg, d.Net, id)
		d.nodes[id] = n
	}
	return d, nil
}

// registerSimLinkGauges exposes a replica's inbound link counters on its
// registry when the deployment runs over the shared simulated fabric. Each
// node registers only its OWN link, so a fleet merge never double-counts the
// shared network. Pull-style: the callbacks read the fabric's atomics at
// snapshot time. (TCP fabrics expose per-peer stats through
// tcpnet.LinkStats; sharperd bridges those itself.)
func registerSimLinkGauges(reg *obs.Registry, fab transport.Fabric, id types.NodeID) {
	if reg == nil {
		return
	}
	sim, ok := fab.(*transport.Network)
	if !ok {
		return
	}
	link := sim.Link(id)
	reg.GaugeFunc("link_in_sent", func() uint64 { return uint64(link.Sent.Load()) })
	reg.GaugeFunc("link_in_delivered", func() uint64 { return uint64(link.Delivered.Load()) })
	reg.GaugeFunc("link_in_dropped", func() uint64 { return uint64(link.Dropped.Load()) })
	reg.GaugeFunc("link_in_bytes", func() uint64 { return uint64(link.Bytes.Load()) })
	reg.GaugeFunc("link_in_delay_us", func() uint64 { return uint64(link.DelayMicros.Load()) })
	reg.GaugeFunc("link_in_queue_depth", func() uint64 { return uint64(sim.QueueDepth(id)) })
}

// MetricsSnapshot returns the fleet-wide merged registry snapshot of every
// replica (nil when metrics are disabled). Sched gauges refresh on each
// node's tick, so a merged snapshot is at most one tick stale.
func (d *Deployment) MetricsSnapshot() []obs.Metric {
	var snaps [][]obs.Metric
	for _, n := range d.Nodes() {
		if r := n.Metrics(); r != nil {
			snaps = append(snaps, r.Snapshot())
		}
	}
	if len(snaps) == 0 {
		return nil
	}
	return obs.Merge(snaps...)
}

// closeStorages closes every built node's storage (used on construction
// failure and for never-started deployments).
func (d *Deployment) closeStorages() {
	for _, n := range d.nodes {
		n.CloseStorage()
	}
}

// Start runs every node.
func (d *Deployment) Start() {
	if d.started {
		return
	}
	d.started = true
	for _, n := range d.nodes {
		n.Start()
	}
}

// Stop terminates every node, tears the fabric(s) down and closes storage.
func (d *Deployment) Stop() {
	d.Net.Close()
	for _, fab := range d.fabrics {
		fab.Close()
	}
	if d.started {
		for _, n := range d.nodes {
			n.Stop() // closes the node's storage too
		}
		d.started = false
	} else {
		d.closeStorages()
	}
}

// DataDir returns the deployment's storage base directory ("" when running
// in-memory).
func (d *Deployment) DataDir() string { return d.cfg.DataDir }

// RestartNode models a full process restart of one replica on the simulated
// fabric: the current incarnation is stopped (its in-memory state dies with
// it), a fresh node is built over the same storage directory — recovering
// chain, shard state, and acceptor obligations from checkpoint + log — and
// started; it then rejoins the cluster and fetches whatever it missed
// through the chain-sync protocol. Combine with CrashNode to model the
// crash itself; RestartNode clears the fabric's crash mark. Without a
// DataDir the node restarts empty (and resyncs from genesis).
//
// TCP replicas restart by restarting their process (see cmd/sharperd -data).
func (d *Deployment) RestartNode(id types.NodeID) (*Node, error) {
	if d.fabrics != nil {
		return nil, fmt.Errorf("core: RestartNode needs the simulated fabric; restart a TCP replica by restarting its process")
	}
	if !d.started {
		return nil, fmt.Errorf("core: RestartNode on a stopped deployment")
	}
	old, ok := d.nodes[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown node %s", id)
	}
	old.Stop() // also closes its storage handle
	// The new incarnation keeps the old one's fabric and registry, so the
	// rebuilt store's handles resolve to the same counters.
	n, err := newReplica(&d.cfg, id, old.cfg.Net, d.Keyring, old.reg)
	if err != nil {
		return nil, err
	}
	d.nodes[id] = n
	// Rebuild the deterministic genesis state before recovery replays over
	// it (a checkpoint snapshot, when present, replaces it wholesale).
	d.seedNode(n)
	if fi := d.Faults(); fi != nil {
		fi.Restart(id)
	}
	n.Start()
	return n, nil
}

// Node returns the replica with the given ID.
func (d *Deployment) Node(id types.NodeID) *Node { return d.nodes[id] }

// Nodes returns all replicas.
func (d *Deployment) Nodes() []*Node {
	out := make([]*Node, 0, len(d.nodes))
	for _, id := range d.Topo.AllNodes() {
		out = append(out, d.nodes[id])
	}
	return out
}

// CrashNode stops delivery to a node, modelling its crash. On the simulated
// fabric the network marks it dead; on TCP the node's own fabric is closed —
// its listener and every connection drop, exactly what killing the process
// would look like to its peers.
func (d *Deployment) CrashNode(id types.NodeID) {
	if fab, ok := d.fabrics[id]; ok {
		fab.Close()
		return
	}
	if fi, ok := d.Net.(transport.FaultInjector); ok {
		fi.Crash(id)
	}
}

// Faults exposes the simulated fabric's fault-injection surface (partitions,
// crash/restart). It returns nil under TransportTCP, where faults are
// physical: close a fabric or kill a process.
func (d *Deployment) Faults() transport.FaultInjector {
	fi, _ := d.Net.(transport.FaultInjector)
	return fi
}

// NodeFabric returns the fabric a replica is attached to: its own TCP
// fabric under TransportTCP, the shared network otherwise.
func (d *Deployment) NodeFabric(id types.NodeID) transport.Fabric {
	if fab, ok := d.fabrics[id]; ok {
		return fab
	}
	return d.Net
}

// connectClients eagerly connects the TCP client fabric to every replica so
// replies forwarded through other nodes can route back. The first call
// waits for the full mesh; later calls use a short grace period (crashed
// replicas stay unreachable by design and must not stall client creation).
func (d *Deployment) connectClients() {
	cf, ok := d.Net.(*tcpnet.Net)
	if !ok {
		return
	}
	timeout := 250 * time.Millisecond
	if !d.clientsConnected.Swap(true) {
		timeout = 5 * time.Second
	}
	cf.ConnectAll(timeout)
}

// SeedAccounts credits `perShard` accounts in every shard with balance on
// every replica of the owning cluster, establishing identical genesis state.
func (d *Deployment) SeedAccounts(perShard int, balance int64) {
	d.seedPerShard, d.seedBalance = perShard, balance
	for _, n := range d.nodes {
		d.seedNode(n)
	}
}

// seedNode replays the genesis credit for one replica's shard.
func (d *Deployment) seedNode(n *Node) {
	for k := 0; k < d.seedPerShard; k++ {
		acct := d.Shards.AccountInShard(n.Cluster(), uint64(k))
		n.Store().Credit(acct, d.seedBalance)
	}
}

// ClusterViews returns one representative ledger view per cluster (the first
// member's), for DAG assembly in tests and examples.
func (d *Deployment) ClusterViews() []*ledger.View {
	var out []*ledger.View
	for _, c := range d.Topo.ClusterIDs() {
		out = append(out, d.nodes[d.Topo.Members(c)[0]].View())
	}
	return out
}

// DAG returns the union ledger assembled from representative views.
func (d *Deployment) DAG() *ledger.DAG { return ledger.NewDAG(d.ClusterViews()...) }

// SchedStats sums every replica's cross-shard scheduler counters. Only safe
// once the deployment has quiesced or stopped, like Counters.
func (d *Deployment) SchedStats() types.SchedStats {
	var agg types.SchedStats
	for _, n := range d.Nodes() {
		agg.Add(n.Counters())
	}
	return agg
}

// FraudProofs gathers every distinct fraud proof held across all replicas
// (deduplicated by locus key — gossip makes most proofs appear on every
// honest member of a cluster). Only safe once the deployment has quiesced or
// stopped, like Counters.
func (d *Deployment) FraudProofs() []*types.FraudProof {
	seen := make(map[string]bool)
	var out []*types.FraudProof
	for _, id := range d.Topo.AllNodes() {
		for _, p := range d.nodes[id].FraudProofs() {
			if !seen[p.Key()] {
				seen[p.Key()] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// TotalCommitted sums committed transactions over one representative node
// per cluster (each committed tx counts once per involved cluster).
func (d *Deployment) TotalCommitted() int64 {
	var total int64
	for _, c := range d.Topo.ClusterIDs() {
		total += d.nodes[d.Topo.Members(c)[0]].Committed()
	}
	return total
}
