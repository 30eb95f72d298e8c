package main

// surface.go is the benchmark's whole coupling to the program: every type,
// function, constant and method of sharper/internal/... that the benchmark
// uses is named here, and no other file imports those packages (a test checks
// that). A change to the program that renames or removes one of these breaks
// this file, and only this file, at compile time. internal/bench and
// internal/workload are deliberately absent: the benchmark owns its inputs
// and its arithmetic.

import (
	"sharper/internal/consensus"
	"sharper/internal/core"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/mempool"
	"sharper/internal/obs"
	"sharper/internal/paxos"
	"sharper/internal/pbft"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/transport/tcpnet"
	"sharper/internal/types"
)

// Vocabulary: identifiers, transactions, blocks, the wire messages the driver
// speaks, and the scheduler counters a node reports.
type (
	NodeID      = types.NodeID
	ClusterID   = types.ClusterID
	ClusterSet  = types.ClusterSet
	AccountID   = types.AccountID
	Hash        = types.Hash
	TxID        = types.TxID
	Op          = types.Op
	Tx          = types.Transaction
	Block       = types.Block
	Envelope    = types.Envelope
	Submit      = types.Submit
	SubmitReply = types.SubmitReply
	SubmitCode  = types.SubmitCode
	SchedStats  = types.SchedStats
)

const (
	ClientIDBase = types.ClientIDBase

	CrashOnly = types.CrashOnly
	Byzantine = types.Byzantine

	MsgSubmit      = types.MsgSubmit
	MsgSubmitReply = types.MsgSubmitReply

	SubmitCommitted  = types.SubmitCommitted
	SubmitRejected   = types.SubmitRejected
	SubmitOverloaded = types.SubmitOverloaded
	SubmitExpired    = types.SubmitExpired
)

var (
	NewClusterSet     = types.NewClusterSet
	DecodeSubmit      = types.DecodeSubmit
	DecodeSubmitReply = types.DecodeSubmitReply
	DecodeEnvelope    = types.DecodeEnvelope
	EncodeTxBatch     = types.EncodeTxBatch
)

// The deployment under test and what the benchmark reads back from it.
type (
	Config     = core.Config
	Deployment = core.Deployment
	Node       = core.Node
	// IntraEngine is the ordering-engine interface the paxos and pbft probes
	// are pumped through.
	IntraEngine = core.IntraEngine
	Topology    = consensus.Topology
	Outbound    = consensus.Outbound
	View        = ledger.View
	DAG         = ledger.DAG
	ShardStore  = state.Store
	ShardMap    = state.ShardMap
	Metric      = obs.Metric
	Registry    = obs.Registry
)

const (
	TransportTCP = core.TransportTCP

	KindHistogram = obs.KindHistogram
)

var (
	NewDeployment   = core.NewDeployment
	UniformTopology = consensus.UniformTopology
	NewDAG          = ledger.NewDAG
	NewView         = ledger.NewView
	GenesisHash     = ledger.GenesisHash
	NewShardStore   = state.NewStore
)

// Fabrics.
type (
	Fabric      = transport.Fabric
	FabricStats = transport.Stats
	SimNetwork  = transport.Network
	TCPNet      = tcpnet.Net
)

var (
	DefaultNetConfig = transport.DefaultConfig
	Multiregion      = transport.Multiregion
	NewSimNetwork    = transport.New
	TCPLoopback      = tcpnet.Loopback
)

// Layers the probes call directly.
type (
	MACKeyring    = crypto.MACKeyring
	Keyring       = crypto.Keyring
	Signer        = crypto.Signer
	VerifyPool    = crypto.VerifyPool
	FrameAuth     = crypto.FrameAuth
	Pool          = mempool.Pool
	PoolConfig    = mempool.Config
	ConflictTable = consensus.ConflictTable
	Store         = storage.Store
	StoreOptions  = storage.Options
	CommitRecord  = storage.CommitRecord
	PaxosConfig   = paxos.Config
	PBFTConfig    = pbft.Config
)

const (
	SyncGroup           = storage.SyncGroup
	DefaultVerifyWindow = crypto.DefaultVerifyWindow
	PoolAdmitted        = mempool.Admitted
	PoolDuplicate       = mempool.Duplicate
)

var (
	NewMACKeyring    = crypto.NewMACKeyring
	NewKeyring       = crypto.NewKeyring
	NewVerifyPool    = crypto.NewVerifyPool
	NewFrameAuth     = crypto.NewFrameAuth
	WireKey          = crypto.WireKey
	NewPool          = mempool.New
	NewConflictTable = consensus.NewConflictTable
	OpenStore        = storage.Open
	NewPaxos         = paxos.New
	NewPBFT          = pbft.New
)

// Methods the benchmark calls on the types above. Listing them as method
// expressions makes a rename fail here rather than somewhere in the probes.
var _ = []any{
	(*Deployment).SeedAccounts, (*Deployment).Start, (*Deployment).Stop,
	(*Deployment).NewGatewayClient, (*Deployment).CrashNode, (*Deployment).Node,
	(*Deployment).Nodes, (*Deployment).NodeFabric, (*Deployment).MetricsSnapshot,
	(*Deployment).RestartNode,
	(*Node).ID, (*Node).View, (*Node).Store, (*Node).Counters, (*Node).Metrics,
	(*Registry).Snapshot, (*SchedStats).Add,
	(*Topology).ClusterIDs, (*Topology).Members, (*Topology).ModelOf,
	(*Topology).F, (*Topology).Primary, (*Topology).AllNodes,
	(*View).HeadInfo, (*View).Blocks, (*View).Cluster, (*View).Append, (*View).Verify,
	(*DAG).Verify, (*DAG).VerifyPairwiseOrder,
	(*ShardStore).Fingerprint, (*ShardStore).Total, (*ShardStore).Credit,
	(*ShardStore).Validate, (*ShardStore).Apply,
	ShardMap.Cluster,
	(*Tx).Digest, (*Tx).Encode, (*Block).Hash, (*Block).IsCrossShard, (*Block).Involved,
	(*Envelope).Encode, (*Submit).Encode, (*SubmitReply).Encode, ClusterSet.Min,
	Fabric.Register, Fabric.Send, Fabric.Stats, Fabric.Close,
	(*Metric).Quantile,
	(*Block).BatchDigest, (*Block).Encode,
	(*MACKeyring).Generate, (*MACKeyring).SignerFor, (*MACKeyring).Verify, (*MACKeyring).VerifyBatch,
	(*Keyring).Generate, (*Keyring).SignerFor, (*Keyring).Verify,
	Signer.Sign, (*FrameAuth).NewSession, (*VerifyPool).Out, (*VerifyPool).Close,
	(*Pool).Admit, (*Pool).Drain, (*Pool).MarkCommitted,
	IntraEngine.Propose, IntraEngine.Step,
	(*ConflictTable).Acquire, (*ConflictTable).Release,
	(*Store).PersistAccept, (*Store).AppendCommitBatch, (*Store).Close, (*Store).Recovered,
	(*TCPNet).Register, (*TCPNet).Send, (*TCPNet).Close,
	(*SimNetwork).Register, (*SimNetwork).Send, (*SimNetwork).Close,
}
