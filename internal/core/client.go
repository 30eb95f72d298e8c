package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/state"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// Sentinel submit outcomes surfaced to callers (the open-loop benchmark
// counts sheds separately from failures).
var (
	// ErrOverloaded: the gateway shed the submit; back off and retry later.
	ErrOverloaded = errors.New("core: gateway overloaded")
	// ErrExpired: the transaction's timestamp fell outside the mempool TTL;
	// re-issue with a fresh timestamp.
	ErrExpired = errors.New("core: submit expired")
)

// Client submits transactions to a SharPer deployment through its client
// ingress (MsgSubmit → gateway → mempool → sealer) and waits for the
// model-appropriate number of matching verdicts: one under the crash model,
// f+1 from distinct replicas under the Byzantine model (§3.1). It routes
// shard-aware — the owning cluster for single-shard transactions, the lowest
// involved cluster (the initiator under super-primary routing) for
// cross-shard ones. Clients are single-goroutine, closed-loop issuers;
// benchmarks raise concurrency by running many clients.
//
// A client speaks to the deployment only through a transport.Fabric plus
// the static topology and shard map, so the same type drives an in-process
// simulated deployment and a remote multi-process one over TCP.
type Client struct {
	id     types.NodeID
	net    transport.Fabric
	topo   *consensus.Topology
	shards state.ShardMap
	inbox  <-chan *types.Envelope
	seq    uint64
	sendTo map[types.ClusterID]int // first gateway to try, per cluster

	// Timeout before the client retransmits a submit.
	Timeout time.Duration
	// MaxAttempts bounds retransmissions before giving up.
	MaxAttempts int
}

var clientCounter atomic.Uint32

// NewClient registers a fresh client endpoint on the deployment's fabric.
// Under TransportTCP the client fabric first connects to every replica so
// verdicts from gateways the client never dialed still find a return path.
func (d *Deployment) NewClient() *Client {
	c := NewClientOn(d.Net, d.Topo, d.Shards)
	if d.fabrics != nil {
		d.connectClients()
	}
	return c
}

// NewGatewayClient is NewClient under the name it had while a second,
// gateway-less client existed; the benchmark's surface pins it.
func (d *Deployment) NewGatewayClient() *Client { return d.NewClient() }

// NewClientOn builds a client with a process-locally unique ID on an
// arbitrary fabric. Use NewClientAt when several driver processes share one
// deployment and must not collide.
func NewClientOn(fab transport.Fabric, topo *consensus.Topology, shards state.ShardMap) *Client {
	id := types.ClientIDBase + types.NodeID(clientCounter.Add(1))
	return NewClientAt(fab, topo, shards, id)
}

// NewClientAt builds a client with an explicit endpoint ID (must be in the
// client range, i.e. ≥ types.ClientIDBase, and unique deployment-wide).
func NewClientAt(fab transport.Fabric, topo *consensus.Topology, shards state.ShardMap, id types.NodeID) *Client {
	return &Client{
		id:          id,
		net:         fab,
		topo:        topo,
		shards:      shards,
		inbox:       fab.Register(id),
		sendTo:      make(map[types.ClusterID]int),
		Timeout:     2 * time.Second,
		MaxAttempts: 8,
	}
}

// ID returns the client's network identity.
func (c *Client) ID() types.NodeID { return c.id }

// MakeTx assembles a transaction from ops, deriving the involved-cluster
// set through the shard map.
func (c *Client) MakeTx(ops []types.Op) *types.Transaction {
	c.seq++
	return &types.Transaction{
		ID:        types.TxID{Client: c.id, Seq: c.seq},
		Client:    c.id,
		Timestamp: time.Now().UnixNano(),
		Ops:       ops,
		Involved:  c.shards.Involved(ops),
	}
}

// Submit offers tx to the initiator cluster's gateways and blocks until the
// verdict quorum arrives or every attempt times out. It returns whether the
// transaction's effects were applied (false = ordered but rejected by
// validation) and the end-to-end latency. Admission sheds surface
// immediately as ErrOverloaded / ErrExpired.
func (c *Client) Submit(tx *types.Transaction) (bool, time.Duration, error) {
	target := tx.Involved.Min()
	needed := 1
	if c.topo.ModelOf(target) == types.Byzantine {
		needed = c.topo.F(target) + 1
	}
	payload := (&types.Submit{Txs: []*types.Transaction{tx}}).Encode(nil)
	start := time.Now()

	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		c.sendSubmit(target, payload, needed, attempt)
		code, ok := c.awaitReplies(tx.ID, needed, c.Timeout)
		if !ok {
			continue
		}
		switch code {
		case types.SubmitCommitted:
			return true, time.Since(start), nil
		case types.SubmitRejected:
			return false, time.Since(start), nil
		case types.SubmitOverloaded:
			return false, time.Since(start), ErrOverloaded
		case types.SubmitExpired:
			return false, time.Since(start), ErrExpired
		}
	}
	return false, time.Since(start), fmt.Errorf("core: tx %s timed out after %d attempts", tx.ID, c.MaxAttempts)
}

// Transfer is the §4 accounting-app convenience: build, submit, and wait.
func (c *Client) Transfer(ops []types.Op) (bool, time.Duration, error) {
	return c.Submit(c.MakeTx(ops))
}

// sendSubmit offers the transaction to `needed` distinct gateways of the
// target cluster. A retry means that window held a crashed or deaf replica:
// later transactions start one member further on, and this one goes to every
// member — a Byzantine cluster changes view only when 2f+1 replicas time out
// on a transaction at about the same moment, which takes all of them holding
// it.
func (c *Client) sendSubmit(target types.ClusterID, payload []byte, needed, attempt int) {
	members := c.topo.Members(target)
	env := &types.Envelope{Type: types.MsgSubmit, From: c.id, Payload: payload}
	if attempt > 0 {
		c.sendTo[target] = (c.sendTo[target] + 1) % len(members)
		for _, m := range members {
			c.net.Send(m, env)
		}
		return
	}
	if needed > len(members) {
		needed = len(members)
	}
	for i := 0; i < needed; i++ {
		c.net.Send(members[(c.sendTo[target]+i)%len(members)], env)
	}
}

// awaitReplies drains the inbox until `needed` matching submit verdicts for
// id arrive from distinct replicas, or the deadline passes. Admission
// verdicts (Overloaded, Expired) return on the first reply: they are local
// judgments, and waiting for a quorum of sheds would just burn the timeout.
func (c *Client) awaitReplies(id types.TxID, needed int, timeout time.Duration) (types.SubmitCode, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	votes := make(map[types.SubmitCode]map[types.NodeID]bool)
	for {
		select {
		case env := <-c.inbox:
			if env.Type != types.MsgSubmitReply {
				continue
			}
			r, err := types.DecodeSubmitReply(env.Payload)
			if err != nil || r.TxID != id || r.Replica != env.From {
				continue
			}
			if r.Code == types.SubmitOverloaded || r.Code == types.SubmitExpired {
				return r.Code, true
			}
			m, ok := votes[r.Code]
			if !ok {
				m = make(map[types.NodeID]bool)
				votes[r.Code] = m
			}
			m[r.Replica] = true
			if len(m) >= needed {
				return r.Code, true
			}
		case <-deadline.C:
			return 0, false
		}
	}
}
