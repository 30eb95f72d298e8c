package core

import (
	"fmt"
	"math/rand"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/mempool"
	"sharper/internal/obs"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// TransportKind selects the message fabric a deployment runs over.
type TransportKind int

const (
	// TransportSim is the in-process simulated fabric (internal/transport):
	// modelled latency, fault injection, per-message processing cost. The
	// default, and what tests and benchmarks use.
	TransportSim TransportKind = iota
	// TransportTCP gives every replica its own TCP fabric on a loopback
	// socket (internal/transport/tcpnet): real length-prefixed,
	// HMAC-authenticated frames between real listeners, inside one process.
	// Fault injection is physical — CrashNode closes the victim's sockets.
	TransportTCP
)

// MaxBatchSize is the hard cap on transactions per block: the flattened
// cross-shard protocol carries per-transaction validity verdicts as a 64-bit
// bitmap (ConsensusMsg.Seq), so larger batches cannot be voted on.
const MaxBatchSize = 64

// Config is the one description every replica of a deployment is built
// from — the trusted setup of §2.1: failure model, cluster plan, network
// behaviour, the seed keys derive from, and the protocol timers. Zero fields
// take the defaults resolve fills in; NewDeployment builds a whole deployment
// from it and NewProcessNode one replica of it.
type Config struct {
	// Model selects crash (Paxos + Algorithm 1) or Byzantine (PBFT +
	// Algorithm 2).
	Model types.FailureModel
	// Clusters is |P|; ignored if Topology is set.
	Clusters int
	// F is the per-cluster fault bound; ignored if Topology is set.
	F int
	// Topology overrides the uniform plan, e.g. for the §3.4
	// clustered-network optimization or a multi-process topology file.
	Topology *consensus.Topology
	// Transport selects the fabric implementation (default TransportSim).
	Transport TransportKind
	// Network configures the simulated fabric; zero value = DefaultConfig.
	// Ignored under TransportTCP (real sockets have real latency).
	Network transport.Config
	// Shaping applies one per-link delay/bandwidth/loss matrix to whichever
	// fabric the deployment runs over: the simulated network consults it per
	// message, and TCP replicas shape each peer link from it (cluster pairs
	// via each peer's cluster, Client for the driver's links and reply
	// routes). transport.Multiregion() reproduces the paper's
	// cross-datacenter setup. Nil leaves both fabrics unshaped.
	Shaping *transport.Shaping
	// DisableSuperPrimary turns off §3.2 super-primary routing (on by
	// default).
	DisableSuperPrimary bool

	// IntraTimeout is a backup's suspicion timer before a view change.
	IntraTimeout time.Duration
	// LockTimeout bounds how long a node stays blocked on an in-flight
	// cross-shard transaction (§3.2 "pre-determined time").
	LockTimeout time.Duration
	// RetryTimeout is the initiator's re-propose timer for conflicting
	// cross-shard transactions.
	RetryTimeout time.Duration
	// TickInterval drives protocol timers.
	TickInterval time.Duration

	// BatchSize caps the transactions bundled into one block (one consensus
	// instance): 1 reproduces the paper's single-transaction blocks, larger
	// values amortize the quorum message cost. At most MaxBatchSize.
	BatchSize int
	// BatchTimeout bounds how long a partial batch may wait for more
	// requests while earlier instances are still in flight. A batch never
	// waits when the pipeline is empty.
	BatchTimeout time.Duration
	// MaxInFlight bounds the pipelined intra-shard consensus instances above
	// the committed head, and the initiator's pipelined cross-shard leads.
	MaxInFlight int
	// VerifyWindow is the batching window of every node's verify pool: up to
	// this many already-arrived envelopes are verified per batch, bisected to
	// exact per-envelope verdicts on failure (see crypto.VerifyPool). 1
	// verifies strictly per signature.
	VerifyWindow int
	// PipelineDepth bounds each node's commit-pipeline queue: at this depth
	// the node stops proposing (never receiving) until the executor drains.
	PipelineDepth int
	// Seed drives all randomness (keys, jitter, fault injection).
	Seed int64
	// Ed25519 switches Byzantine deployments from the default HMAC
	// authenticators (PBFT's normal-case MAC vectors) to real ed25519
	// signatures. MACs are the faithful performance model; signatures cost
	// two orders of magnitude more CPU.
	Ed25519 bool

	// DataDir enables durable storage: every replica keeps a write-ahead
	// log and periodic checkpoints under NodeDataDir(DataDir, id), recovers
	// from them when rebuilt over the same directory, and can be restarted
	// in place with RestartNode. Empty means in-memory.
	DataDir string
	// Sync is the WAL fsync policy (default storage.SyncGroup).
	Sync storage.SyncPolicy
	// CheckpointInterval is the number of committed blocks between
	// checkpoints (default 256).
	CheckpointInterval int
	// NoPersist is not read by any production code. It is kept because the
	// benchmark's deployment literal names it; durability is DataDir alone.
	NoPersist bool

	// NoMetrics disables the per-node observability registries. Metrics are
	// on by default (the hot path costs one atomic per event), so every
	// deployment is scrapeable; the overhead benchmark flips this for its
	// A/B baseline.
	NoMetrics bool
	// TraceSample is the lifecycle tracer's 1-in-N sampling rate (1 traces
	// everything). Ignored under NoMetrics.
	TraceSample int
	// Trace records every consensus engine's protocol events into a bounded
	// ring (Node.DebugTrace, a QueryTrace), the evidence a divergence hunt
	// reads. Off by default: formatting the events is not free.
	Trace bool

	// Mempool bounds every replica's client-ingress gateway pool (byte and
	// count caps over pending + in-flight transactions, TTL); zero fields
	// take the mempool package defaults. The gateway is always on: replicas
	// of deployments that never submit through it keep an empty pool.
	Mempool mempool.Config

	// Slash arms the equivocation-detecting auditor on every replica of a
	// Byzantine cluster (a crash cluster's messages are unsigned and prove
	// nothing): nodes index inbound consensus envelopes, mint signed fraud proofs from
	// conflicting claims, gossip them cluster-wide, and persist them to the
	// evidence log when storage is on. Proofs are third-party verifiable only
	// under Ed25519. See internal/slasher.
	Slash bool
	// WrapFabric, when set, decorates each replica's fabric before the node
	// registers on it — the seam the adversary harness uses to compromise
	// nodes (internal/adversary). NewDeployment applies it under both
	// transports, and a replica rebuilt by RestartNode keeps its wrapped
	// fabric. Clients are not wrapped.
	WrapFabric func(types.NodeID, transport.Fabric) transport.Fabric
}

// resolve fills every zero field that has a default and validates the
// result, building the uniform topology from Clusters and F when none is
// given. It is the only place defaults live: NewDeployment and
// NewProcessNode both call it, so a replica resolves the same configuration
// whichever way it is built.
func (c *Config) resolve() error {
	if c.Topology == nil {
		if c.Clusters <= 0 || c.F <= 0 {
			return fmt.Errorf("core: Clusters and F must be positive (got %d, %d)", c.Clusters, c.F)
		}
		c.Topology = consensus.UniformTopology(c.Model, c.Clusters, c.F)
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Topology.Model != c.Model && !c.Topology.Hybrid() {
		return fmt.Errorf("core: topology model %s != config model %s", c.Topology.Model, c.Model)
	}
	if c.BatchSize > MaxBatchSize {
		return fmt.Errorf("core: BatchSize %d exceeds the %d-transaction cap (the cross-shard validity bitmap is %d bits wide)",
			c.BatchSize, MaxBatchSize, MaxBatchSize)
	}
	orDefault(&c.IntraTimeout, 500*time.Millisecond)
	// Fallback only: locks are normally released by commit or an initiator
	// abort; the unilateral expiry guards against a crashed initiator, so it
	// can afford to be patient. It MUST be patient: a participant whose lock
	// expires while the decided COMMIT is still in flight resumes intra-shard
	// ordering, its chain moves past the head it voted, and the late commit
	// can never append there — the §3.2 "pre-determined time" has to dominate
	// worst-case commit delivery, including heavily loaded multi-process
	// deployments.
	orDefault(&c.LockTimeout, 3*time.Second)
	// With two-shard transactions under super-primary routing the waits-for
	// graph across clusters is acyclic (locks are acquired lowest-cluster
	// first), and a parked proposal is normally granted within a millisecond,
	// so be patient before aborting an attempt. What does run into this timer
	// is a split vote inside one cluster: its members promised one chain slot
	// to different candidates (DESIGN.md "What a withdrawal is").
	orDefault(&c.RetryTimeout, 250*time.Millisecond)
	orDefault(&c.TickInterval, 5*time.Millisecond)
	orDefault(&c.BatchSize, 1)
	orDefault(&c.BatchTimeout, 2*time.Millisecond)
	orDefault(&c.MaxInFlight, 8)
	orDefault(&c.VerifyWindow, crypto.DefaultVerifyWindow)
	orDefault(&c.PipelineDepth, 32)
	orDefault(&c.TraceSample, obs.DefaultTraceSample)
	if c.Network == (transport.Config{}) {
		c.Network = transport.DefaultConfig()
	}
	orDefault(&c.Network.Seed, c.Seed)
	if c.Shaping != nil {
		c.Network.Shaping = c.Shaping
	}
	return nil
}

// orDefault sets *v to def when it is zero or negative.
func orDefault[T int | int64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// DeriveKeys rebuilds a deployment's authenticator from its seed: every
// node's keys are generated in canonical order from one seeded source, so
// separate processes started from one configuration agree on them without
// exchanging secrets. Keys exist only when some cluster may lie; a
// crash-only deployment signs nothing and gets an empty keyring.
func DeriveKeys(cfg Config) (crypto.Provider, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	var keys crypto.Provider = crypto.NewMACKeyring()
	if cfg.Ed25519 {
		keys = crypto.NewKeyring()
	}
	if !cfg.Topology.AnyByzantine() {
		return keys, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for _, id := range cfg.Topology.AllNodes() {
		if err := keys.Generate(id, rng); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// newReplica builds replica id of the resolved configuration *cfg over fab:
// the signer its keys give it, its storage under cfg.DataDir, and its
// metrics registry — reg when a restarted replica keeps its predecessor's,
// a fresh one otherwise. NewDeployment, RestartNode and NewProcessNode all
// build their replicas here.
func newReplica(cfg *Config, id types.NodeID, fab transport.Fabric, keys crypto.Provider, reg *obs.Registry) (*Node, error) {
	cluster, ok := cfg.Topology.ClusterOf(id)
	if !ok {
		return nil, fmt.Errorf("core: node %s is not in the topology", id)
	}
	if reg == nil && !cfg.NoMetrics {
		reg = obs.NewRegistry()
	}
	ncfg := nodeConfig{
		Config:       cfg,
		Self:         id,
		Cluster:      cluster,
		ClusterModel: cfg.Topology.ModelOf(cluster),
		Net:          fab,
		Signer:       crypto.NoopSigner{},
		Verifier:     crypto.NoopSigner{},
		Metrics:      reg,
	}
	// Signatures are required deployment-wide as soon as any cluster runs
	// under the Byzantine model (hybrid deployments, §3.4).
	if cfg.Topology.AnyByzantine() {
		s, err := keys.SignerFor(id)
		if err != nil {
			return nil, err
		}
		ncfg.Signer, ncfg.Verifier = s, keys
	}
	if cfg.DataDir != "" {
		st, err := storage.Open(NodeDataDir(cfg.DataDir, id), storage.Options{
			Sync: cfg.Sync, CheckpointInterval: cfg.CheckpointInterval,
			Metrics: obs.NewStoreMetrics(reg),
		})
		if err != nil {
			return nil, err
		}
		ncfg.Storage = st
	}
	return newNode(ncfg), nil
}
