package core

import (
	"sync"
	"time"

	"sharper/internal/mempool"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// gateway is the replica's client-ingress front door: it admits MsgSubmit
// transactions into the per-shard mempool, answers admission verdicts
// (Overloaded, Expired) immediately, and answers commit verdicts from its own
// observation of execution — every replica applies every committed block, so
// a gateway replies to its clients without owning the ordering path.
//
// Ownership rules: a transaction belongs to the pool of whichever replicas of
// the initiator cluster received it (directly from the client, or via a
// propagation batch from a peer gateway). The primary's pump drains its pool
// into the batch accumulators; non-primary gateways propagate drained batches
// to the primary in one MsgSubmit (Via = self) instead of poking the
// accumulator one transaction at a time. Capacity is released only when a
// commit is observed or the TTL sweep gives up, so a stalled primary backs
// pressure up to every admitting gateway, which then sheds with Overloaded.
//
// Liveness rule: a gateway that handed a transaction toward ordering watches
// it (watchHandovers). One that stays uncommitted past IntraTimeout, while no
// block the primary initiated has arrived for as long, makes the gateway
// suspect the primary it was handed to; one that was handed to the primary of
// an earlier view and is still uncommitted half an IntraTimeout into the
// current view goes back to the pool, and the pump offers it to the current
// primary. A transaction a live gateway admitted therefore commits after a
// primary crash without a client retransmission.
type gateway struct {
	n       *Node
	pool    *mempool.Pool
	metrics *obs.MempoolMetrics

	// handed lists, oldest first, the batches drained toward ordering whose
	// commits watchHandovers has not checked yet. view is the intra-shard
	// view the pump last saw and viewSince when it first saw it. Loop-owned.
	handed    []handover
	view      uint64
	viewSince time.Time

	// origins maps an admitted transaction to the client endpoint owed a
	// SubmitReply, stamped for expiry. Written on the loop (onSubmit),
	// consumed on the executor goroutine (observeCommit).
	mu      sync.Mutex
	origins map[types.TxID]gatewayOrigin
}

// handover is one batch drained from the pool at one instant: into this
// node's accumulators on the primary, onto a propagation message elsewhere.
type handover struct {
	at  time.Time
	txs []*types.Transaction
	// shared: the watch already ran out once on these in this view (and, in
	// a Byzantine cluster, the peers were given them).
	shared bool
}

// gatewayOrigin is one client endpoint awaiting a commit verdict.
type gatewayOrigin struct {
	to types.NodeID
	at time.Time
}

func newGateway(n *Node, cfg mempool.Config) *gateway {
	return &gateway{
		n:       n,
		pool:    mempool.New(cfg),
		metrics: obs.NewMempoolMetrics(n.reg),
		origins: make(map[types.TxID]gatewayOrigin),
	}
}

// onSubmit admits a submitted batch. Runs on the event loop. Direct client
// submits (Via == 0) owe the sender a SubmitReply per transaction; a peer
// gateway's propagation batch (Via != 0) is admission-only — the origin
// gateway answers its own clients.
func (g *gateway) onSubmit(env *types.Envelope, now time.Time) {
	s, err := types.DecodeSubmit(env.Payload)
	if err != nil {
		return
	}
	n := g.n
	direct := s.Via == 0
	for _, tx := range s.Txs {
		if len(tx.Involved) == 0 {
			continue
		}
		target := n.initiatorCluster(tx.Involved)
		if target != n.cfg.Cluster {
			if direct {
				// Misrouted client submit: relay toward the owning cluster,
				// preserving the client's identity so the remote gateway
				// replies straight to it.
				n.cfg.Net.Send(n.cfg.Topology.Members(target)[0], &types.Envelope{
					Type: types.MsgSubmit, From: env.From,
					Payload: (&types.Submit{Txs: []*types.Transaction{tx}}).Encode(nil),
				})
			}
			continue
		}
		// Already executed: a client is answered from the window's verdict.
		// Already on the chain: a peer's propagated copy is dropped as a
		// duplicate. The pool forgets a transaction once it commits, so this
		// is the only check that does.
		if direct {
			if committed, ok := n.window.Get(tx.ID); ok {
				code := types.SubmitCommitted
				if !committed {
					code = types.SubmitRejected
				}
				g.sendReply(env.From, tx.ID, code)
				continue
			}
		} else if n.window.Contains(tx.ID) {
			if g.metrics != nil {
				g.metrics.Deduped.Inc()
			}
			continue
		}
		switch g.pool.Admit(tx, now) {
		case mempool.Admitted:
			if g.metrics != nil {
				g.metrics.Admitted.Inc()
				lat := (now.UnixNano() - tx.Timestamp) / 1000
				if lat < 0 {
					lat = 0
				}
				g.metrics.IngestMicros.Observe(uint64(lat))
			}
			if direct {
				g.recordOrigin(tx.ID, env.From, now)
			}
		case mempool.Duplicate:
			if g.metrics != nil {
				g.metrics.Deduped.Inc()
			}
			if direct {
				// The duplicate submitter is owed the commit verdict too.
				g.recordOrigin(tx.ID, env.From, now)
			}
		case mempool.Overloaded:
			if g.metrics != nil {
				g.metrics.Shed.Inc()
			}
			if direct {
				g.sendReply(env.From, tx.ID, types.SubmitOverloaded)
			}
		case mempool.Expired:
			if g.metrics != nil {
				g.metrics.Expired.Inc()
			}
			if direct {
				g.sendReply(env.From, tx.ID, types.SubmitExpired)
			}
		}
	}
}

func (g *gateway) recordOrigin(id types.TxID, to types.NodeID, now time.Time) {
	g.mu.Lock()
	g.origins[id] = gatewayOrigin{to: to, at: now}
	g.mu.Unlock()
}

// takeOrigin removes and returns the endpoint owed a reply for id.
func (g *gateway) takeOrigin(id types.TxID) (types.NodeID, bool) {
	g.mu.Lock()
	o, ok := g.origins[id]
	if ok {
		delete(g.origins, id)
	}
	g.mu.Unlock()
	return o.to, ok
}

func (g *gateway) sendReply(to types.NodeID, id types.TxID, code types.SubmitCode) {
	payload := (&types.SubmitReply{TxID: id, Replica: g.n.cfg.Self, Code: code}).Encode(nil)
	g.n.cfg.Net.Send(to, &types.Envelope{
		Type: types.MsgSubmitReply, From: g.n.cfg.Self,
		Payload: payload, Sig: g.n.cfg.Signer.Sign(payload),
	})
}

// observeCommit settles one executed transaction: its mempool capacity is
// released and any client owed a verdict gets it. Called from the commit
// pipeline's reply stage (after the durable group append) on the executor
// goroutine, and on the loop for a drained transaction that turns out to be
// executed already.
func (g *gateway) observeCommit(tx *types.Transaction, committed bool) {
	g.pool.MarkCommitted(tx.Digest(), time.Now())
	origin, ok := g.takeOrigin(tx.ID)
	if !ok {
		return
	}
	code := types.SubmitCommitted
	if !committed {
		code = types.SubmitRejected
	}
	g.sendReply(origin, tx.ID, code)
}

// sweep expires pool state by age: pending transactions past the TTL are
// answered with Expired; origins whose transaction silently disappeared
// (e.g. shed at the primary after propagation) are dropped so the map cannot
// grow without bound — the client's retransmission re-drives the submit.
// Runs on the event loop tick.
func (g *gateway) sweep(now time.Time) {
	expired := g.pool.Sweep(now)
	if len(expired) > 0 && g.metrics != nil {
		g.metrics.Expired.Add(uint64(len(expired)))
	}
	for _, tx := range expired {
		if origin, ok := g.takeOrigin(tx.ID); ok {
			g.sendReply(origin, tx.ID, types.SubmitExpired)
		}
	}
	cutoff := now.Add(-2 * g.pool.Config().TTL)
	g.mu.Lock()
	for id, o := range g.origins {
		if o.at.Before(cutoff) {
			delete(g.origins, id)
		}
	}
	g.mu.Unlock()
}

// refreshGauges publishes the pool's occupancy; called with the node's other
// gauge refreshes on the event loop.
func (g *gateway) refreshGauges() {
	if g.metrics == nil {
		return
	}
	g.metrics.PendingBytes.Set(uint64(g.pool.PendingBytes()))
	g.metrics.PendingCount.Set(uint64(g.pool.PendingCount()))
}

// noteHandover starts the watch on a batch just drained from the pool.
// Batches drained within one tick share an entry: the watch runs on the tick.
func (g *gateway) noteHandover(txs []*types.Transaction, now time.Time) {
	if k := len(g.handed) - 1; k >= 0 && !g.handed[k].shared &&
		now.Sub(g.handed[k].at) < g.n.cfg.TickInterval {
		g.handed[k].txs = append(g.handed[k].txs, txs...)
		return
	}
	g.handed = append(g.handed, handover{at: now, txs: txs})
}

// watchHandovers applies the liveness rule to every batch whose time has run
// out. A batch handed over in the current view gets IntraTimeout from the
// hand-over. One handed over in an earlier view gets half of that from the
// start of the current view: offered again at once, the transactions the view
// change itself carries over (whatever the deposed primary had proposed) would
// be ordered twice, while the new primary has to order the rest before the
// backups' own timers, one IntraTimeout from the install, depose it in turn.
// Runs on the tick.
func (g *gateway) watchHandovers(now time.Time) {
	n := g.n
	for len(g.handed) > 0 {
		h := g.handed[0]
		stale := h.at.Before(g.viewSince)
		due := h.at.Add(n.cfg.IntraTimeout)
		if stale {
			due = g.viewSince.Add(n.cfg.IntraTimeout / 2)
		}
		if now.Before(due) {
			return
		}
		g.handed[0] = handover{}
		g.handed = g.handed[1:]
		open := h.txs[:0]
		for _, tx := range h.txs {
			if !n.window.Contains(tx.ID) {
				open = append(open, tx)
			}
		}
		primary := n.intra.IsPrimary()
		if stale || (!primary && now.Sub(n.ledAppend) < n.cfg.IntraTimeout) {
			// Handed to a primary that is gone — or to one that is alive:
			// blocks it initiated still arrive, so the batch waits behind
			// something else (a cross-shard lock, a backed-off lead — a
			// correct primary can take seconds over those, so no
			// per-transaction bound holds) or the hand-over was lost on the
			// way. Deposing the primary cures neither; offering the batch
			// again cures the second, and the primary's own pool screens it
			// if it was the first.
			g.pool.Requeue(open)
			continue
		}
		// Expired and settled-elsewhere transactions have left the pool;
		// only what it still counts in flight keeps the primary on the clock.
		if open = g.pool.InFlight(open); len(open) == 0 {
			continue
		}
		switch {
		case primary:
			// The backups' timers police a primary; it only keeps the batch
			// on watch for the day it is deposed.
		case n.cfg.ClusterModel == types.Byzantine && !h.shared:
			// One replica's suspicion deposes no Byzantine primary — it only
			// takes that replica out of the quorum. Give the batch to the
			// peers first: their watches then run out together with this
			// one's second round, and f+1 suspicions bring the rest along.
			peers := othersOf(n.cfg.Topology.Members(n.cfg.Cluster), n.cfg.Self)
			for rest := open; len(rest) > 0; {
				k := min(len(rest), propagationBatch(n.cfg.BatchSize))
				n.cfg.Net.Multicast(peers, n.propagation(rest[:k]))
				rest = rest[k:]
			}
		default:
			n.send(n.intra.SuspectPrimary(now))
		}
		g.handed = append(g.handed, handover{at: now, txs: open, shared: true})
	}
}

// pumpGateway moves admitted transactions toward ordering: the primary
// drains its pool straight into the batch accumulators (bounded so the
// sealer, not the pool, stays the batching authority), while a non-primary
// gateway forwards one propagation batch to the primary per turn. Both paths
// stop when the commit pipeline reports backpressure, composing the mempool
// caps with the pipeline gate: overload slows draining, pools fill, Admit
// sheds.
func (n *Node) pumpGateway(now time.Time) {
	g := n.gw
	if v := n.intra.View(); v != g.view {
		g.view, g.viewSince = v, now
	}
	primary := n.intra.IsPrimary()
	if !primary {
		n.releaseAccumulators()
	}
	if !g.pool.HasQueued() {
		return
	}
	if n.exec.Full() {
		return // commit pipeline full: stop feeding, keep receiving
	}
	if primary {
		budget := n.cfg.BatchSize*n.cfg.MaxInFlight - len(n.pendingIntra) - len(n.pendingCross)
		if budget > 256 {
			budget = 256
		}
		txs := g.pool.Drain(budget)
		if len(txs) == 0 {
			return
		}
		g.noteHandover(txs, now)
		for _, tx := range txs {
			n.ingestFromPool(tx, now)
		}
		return
	}
	batch := g.pool.Drain(propagationBatch(n.cfg.BatchSize))
	if len(batch) == 0 {
		return
	}
	g.noteHandover(batch, now)
	n.cfg.Net.Send(n.intra.Primary(), n.propagation(batch))
}

// propagation wraps txs as one gateway-to-gateway, admission-only batch.
func (n *Node) propagation(txs []*types.Transaction) *types.Envelope {
	payload := (&types.Submit{Via: n.cfg.Self, Txs: txs}).Encode(nil)
	return &types.Envelope{
		Type: types.MsgSubmit, From: n.cfg.Self,
		Payload: payload, Sig: n.cfg.Signer.Sign(payload),
	}
}

// releaseAccumulators keeps the batch accumulators a primary-only structure:
// a node that is not the primary returns whatever sits in them to its pool,
// and the pump propagates it to the current primary. A deposed primary would
// otherwise hold those transactions forever (Propose refuses, flushIntra puts
// the batch back, every turn) and propose them again, long committed
// elsewhere, if it were re-elected.
func (n *Node) releaseAccumulators() {
	if len(n.pendingIntra)+len(n.pendingCross) == 0 {
		return
	}
	txs := append(n.pendingIntra, n.pendingCross...)
	n.pendingIntra, n.pendingCross = nil, nil
	for _, tx := range txs {
		delete(n.queued, tx.ID)
		delete(n.crossArrived, tx.ID)
		delete(n.inFlight, tx.ID)
	}
	n.gw.pool.Requeue(txs)
}

// propagationBatch sizes a gateway→primary batch: several sealer batches per
// wire message, bounded by the cross-shard bitmap width.
func propagationBatch(batchSize int) int {
	pb := 4 * batchSize
	if pb < 16 {
		pb = 16
	}
	if pb > 64 {
		pb = 64
	}
	return pb
}

// ingestFromPool routes one drained transaction into the proposal path
// unless it is already executed, queued, on the chain, or in consensus.
// Skipped transactions stay in the pool's in-flight set; the commit
// observation (or the TTL sweep) releases them.
func (n *Node) ingestFromPool(tx *types.Transaction, now time.Time) {
	if committed, ok := n.window.Get(tx.ID); ok {
		// Already executed (e.g. a peer gateway's copy won the race): settle
		// immediately so the origin gets its verdict.
		n.gw.observeCommit(tx, committed)
		return
	}
	if n.queued[tx.ID] || n.window.Contains(tx.ID) {
		return
	}
	if t, ok := n.inFlight[tx.ID]; ok && now.Sub(t) < n.cfg.IntraTimeout {
		return
	}
	if !tx.IsCrossShard() {
		if tx.Involved[0] != n.cfg.Cluster {
			return // misrouted; admission should have filtered this
		}
		n.inFlight[tx.ID] = now
		n.tracer.Start(tx.ID, false, now)
		n.proposeIntra(tx, now)
		return
	}
	if n.initiatorCluster(tx.Involved) != n.cfg.Cluster {
		return
	}
	n.inFlight[tx.ID] = now
	n.tracer.Start(tx.ID, true, now)
	n.proposeCross(tx, now)
}
