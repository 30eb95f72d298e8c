// Package ordertest is the test support of the intra-shard ordering engine:
// a deterministic in-memory cluster harness parameterised by vote policy, and
// the contract every policy must keep (contract.go). It is a package rather
// than a _test file because three test packages share it — internal/ordering
// runs the whole contract over every policy, and internal/paxos and
// internal/pbft keep the tests specific to their policy beside its
// constructor.
package ordertest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/ordering"
	"sharper/internal/paxos"
	"sharper/internal/pbft"
	"sharper/internal/types"
)

// Policy names one vote policy at one fault bound: the constructor that
// picks it and the message types of its three phases, for tests that build
// or filter messages by hand.
type Policy struct {
	Name     string
	Model    types.FailureModel
	F        int
	Proposal types.MsgType // primary → all
	Vote     types.MsgType // the phase between proposal and commit
	Commit   types.MsgType
}

// Crash is the crash policy (paxos.New) over 2f+1 nodes.
func Crash(f int) Policy {
	return Policy{Name: fmt.Sprintf("crash-f%d", f), Model: types.CrashOnly, F: f,
		Proposal: types.MsgPaxosAccept, Vote: types.MsgPaxosAccepted, Commit: types.MsgPaxosCommit}
}

// Byz is the Byzantine policy (pbft.New) over 3f+1 nodes with ed25519
// signatures.
func Byz(f int) Policy {
	return Policy{Name: fmt.Sprintf("byz-f%d", f), Model: types.Byzantine, F: f,
		Proposal: types.MsgPrePrepare, Vote: types.MsgPrepare, Commit: types.MsgCommit}
}

// Policies is the set the contract runs over.
var Policies = []Policy{Crash(1), Crash(2), Byz(1)}

// Harness drives one cluster of engines deterministically: outbound messages
// are queued and delivered in FIFO order, with optional drops.
type Harness struct {
	T *testing.T
	Policy
	Topo    *consensus.Topology
	Engines map[types.NodeID]*ordering.Engine
	// Decided collects every decision each node has surfaced, from any entry
	// point the harness drove.
	Decided map[types.NodeID][]consensus.Decision
	// Sent counts the messages each node has emitted, by type.
	Sent map[types.NodeID]map[types.MsgType]int
	// Drop, when set, discards a message instead of queueing it.
	Drop func(to types.NodeID, env *types.Envelope) bool
	Now  time.Time

	keys  *crypto.Keyring
	tune  func(types.NodeID, *ordering.Config)
	queue []routed
}

type routed struct {
	to  types.NodeID
	env *types.Envelope
}

// NewHarness builds a one-cluster deployment of the policy with a 100 ms
// proposal timeout. tune, when non-nil, edits each node's config before its
// engine is built (persistence and reservation hooks).
func NewHarness(t *testing.T, p Policy, tune func(id types.NodeID, cfg *ordering.Config)) *Harness {
	t.Helper()
	h := &Harness{
		T:       t,
		Policy:  p,
		Topo:    consensus.UniformTopology(p.Model, 1, p.F),
		Engines: make(map[types.NodeID]*ordering.Engine),
		Decided: make(map[types.NodeID][]consensus.Decision),
		Sent:    make(map[types.NodeID]map[types.MsgType]int),
		Now:     time.Unix(0, 0),
		keys:    crypto.NewKeyring(),
		tune:    tune,
	}
	rng := rand.New(rand.NewSource(1))
	for _, id := range h.Topo.AllNodes() {
		if err := h.keys.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range h.Topo.AllNodes() {
		h.Engines[id] = h.NewEngine(id)
		h.Sent[id] = make(map[types.MsgType]int)
	}
	return h
}

// NewEngine builds a fresh engine for the node, as a restart would; the
// caller installs it in Engines if it is to replace the running one.
func (h *Harness) NewEngine(id types.NodeID) *ordering.Engine {
	cfg := ordering.Config{Topology: h.Topo, Cluster: 0, Self: id, Timeout: 100 * time.Millisecond}
	if h.tune != nil {
		h.tune(id, &cfg)
	}
	if h.Model == types.CrashOnly {
		return paxos.New(cfg, ledger.GenesisHash())
	}
	signer, err := h.keys.SignerFor(id)
	if err != nil {
		h.T.Fatal(err)
	}
	cfg.Signer, cfg.Verifier = signer, h.keys
	return pbft.New(cfg, ledger.GenesisHash())
}

// Members returns the cluster's nodes; Members()[0] leads view 0.
func (h *Harness) Members() []types.NodeID { return h.Topo.Members(0) }

// Live returns the members other than the given ones.
func (h *Harness) Live(except ...types.NodeID) []types.NodeID {
	var out []types.NodeID
next:
	for _, id := range h.Members() {
		for _, x := range except {
			if id == x {
				continue next
			}
		}
		out = append(out, id)
	}
	return out
}

// Primary returns the engine leading the view the cluster's members agree on.
func (h *Harness) Primary() *ordering.Engine {
	for _, e := range h.Engines {
		if e.IsPrimary() {
			return e
		}
	}
	h.T.Fatal("no primary")
	return nil
}

// Send queues the outbound messages a node produced.
func (h *Harness) Send(from types.NodeID, outs []consensus.Outbound) {
	for _, o := range outs {
		h.Sent[from][o.Env.Type] += len(o.To)
		for _, to := range o.To {
			if h.Drop != nil && h.Drop(to, o.Env) {
				continue
			}
			h.queue = append(h.queue, routed{to: to, env: o.Env})
		}
	}
}

// Deliver steps one envelope into a node, records its decisions and queues
// what it sends. It returns what the step produced, for tests that assert on
// a single delivery.
func (h *Harness) Deliver(to types.NodeID, env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	outs, decs := h.Engines[to].Step(env, h.Now)
	h.Decided[to] = append(h.Decided[to], decs...)
	h.Send(to, outs)
	return outs, decs
}

// Pump delivers queued messages until quiescence.
func (h *Harness) Pump() {
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		h.Deliver(m.to, m.env)
	}
}

// Held removes and returns the queued messages addressed to a node, in
// order, so a test can deliver them in an order of its own.
func (h *Harness) Held(to types.NodeID) []*types.Envelope {
	var held []*types.Envelope
	rest := h.queue[:0]
	for _, m := range h.queue {
		if m.to == to {
			held = append(held, m.env)
		} else {
			rest = append(rest, m)
		}
	}
	h.queue = rest
	return held
}

// Tick advances time, fires every engine's timers, and pumps.
func (h *Harness) Tick(d time.Duration) {
	h.Now = h.Now.Add(d)
	for _, id := range h.Topo.AllNodes() {
		outs, decs := h.Engines[id].Tick(h.Now)
		h.Decided[id] = append(h.Decided[id], decs...)
		h.Send(id, outs)
	}
	h.Pump()
}

// Launch has a node propose a batch and queues the proposal without
// delivering it; it returns the assigned sequence (0 when refused).
func (h *Harness) Launch(id types.NodeID, txs ...*types.Transaction) uint64 {
	outs, seq := h.Engines[id].Propose(txs, h.Now)
	h.Send(id, outs)
	return seq
}

// Propose has the current primary propose a batch and pumps to quiescence.
func (h *Harness) Propose(txs ...*types.Transaction) {
	h.Launch(h.Primary().Primary(), txs...)
	h.Pump()
}

// Envelope builds a protocol message as the given node would send it:
// encoded, and signed with the node's key under the Byzantine policy.
func (h *Harness) Envelope(t types.MsgType, from types.NodeID, m *types.ConsensusMsg) *types.Envelope {
	return h.Sign(&types.Envelope{Type: t, From: from, Payload: m.Encode(nil)})
}

// Sign signs an envelope's payload as its sender (Byzantine policy only).
func (h *Harness) Sign(env *types.Envelope) *types.Envelope {
	if h.Model == types.Byzantine {
		signer, err := h.keys.SignerFor(env.From)
		if err != nil {
			h.T.Fatal(err)
		}
		env.Sig = signer.Sign(env.Payload)
	}
	return env
}

// ProposalMsg is the proposal the primary of the given view would send for
// the batch at (seq, parent).
func ProposalMsg(view, seq uint64, parent types.Hash, txs ...*types.Transaction) *types.ConsensusMsg {
	return &types.ConsensusMsg{
		View: view, Seq: seq, Digest: types.BatchDigest(txs), Cluster: 0,
		PrevHashes: []types.Hash{parent}, Txs: txs,
	}
}

// DecidedSeqs returns the transaction sequence numbers of the first
// transaction of each block a node decided, in decision order.
func (h *Harness) DecidedSeqs(id types.NodeID) []uint64 {
	var out []uint64
	for _, d := range h.Decided[id] {
		out = append(out, d.Block.Txs[0].ID.Seq)
	}
	return out
}

// Tx is a one-op intra-shard transaction identified by seq.
func Tx(seq uint64) *types.Transaction {
	return &types.Transaction{
		ID:       types.TxID{Client: types.ClientIDBase + 1, Seq: seq},
		Client:   types.ClientIDBase + 1,
		Ops:      []types.Op{{From: 0, To: 1, Amount: int64(seq)}},
		Involved: types.ClusterSet{0},
	}
}
