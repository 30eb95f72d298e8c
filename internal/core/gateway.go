package core

import (
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
// Liveness rule: a gateway watches what it handed toward ordering (the
// pool's hand-over watch, watchHandovers). A record that stays uncommitted
// past IntraTimeout, while no block the primary initiated has arrived for as
// long, makes the gateway suspect the primary it was handed to; one that was
// handed to the primary of an earlier view and is still uncommitted half an
// IntraTimeout into the current view goes back to the pool, and the pump
// offers it to the current primary. A transaction a live gateway admitted
// therefore commits after a primary crash without a client retransmission.
type gateway struct {
	n       *Node
	pool    *mempool.Pool
	metrics *obs.MempoolMetrics

	// view is the intra-shard view the pump last saw and viewSince when it
	// first saw it. codes is onSubmit's scratch. Loop-owned.
	view      uint64
	viewSince time.Time
	codes     []mempool.Code
}

func newGateway(n *Node, cfg mempool.Config) *gateway {
	return &gateway{
		n:       n,
		pool:    mempool.New(cfg),
		metrics: obs.NewMempoolMetrics(n.reg),
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
	// The client owed verdicts, 0 for a propagation batch. Replica 0's own
	// batches carry Via 0 as well; no client has ID 0.
	var from types.NodeID
	if s.Via == 0 {
		from = env.From
	}
	direct := from != 0
	admit := s.Txs[:0] // filtered in place: the decoded batch is this call's own
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
				g.sendReply(env.From, tx.ID, verdictCode(committed))
				continue
			}
		} else if n.window.Contains(tx.ID) {
			g.metrics.Deduped.Inc()
			continue
		}
		admit = append(admit, tx)
	}
	// A direct submitter is owed the commit verdict of what it submitted,
	// duplicates included.
	g.codes = g.pool.AdmitAll(admit, from, now, g.codes[:0])
	for i, tx := range admit {
		var reply types.SubmitCode
		switch g.codes[i] {
		case mempool.Admitted:
			g.metrics.Admitted.Inc()
			g.metrics.IngestMicros.Observe(uint64(max(now.UnixNano()-tx.Timestamp, 0) / 1000))
			continue
		case mempool.Duplicate:
			g.metrics.Deduped.Inc()
			continue
		case mempool.Overloaded:
			g.metrics.Shed.Inc()
			reply = types.SubmitOverloaded
		case mempool.Expired:
			g.metrics.Expired.Inc()
			reply = types.SubmitExpired
		}
		if direct {
			g.sendReply(env.From, tx.ID, reply)
		}
	}
}

func verdictCode(committed bool) types.SubmitCode {
	if committed {
		return types.SubmitCommitted
	}
	return types.SubmitRejected
}

func (g *gateway) sendReply(to types.NodeID, id types.TxID, code types.SubmitCode) {
	payload := (&types.SubmitReply{TxID: id, Replica: g.n.cfg.Self, Code: code}).Encode(nil)
	g.n.cfg.Net.Send(to, &types.Envelope{
		Type: types.MsgSubmitReply, From: g.n.cfg.Self,
		Payload: payload, Sig: g.n.cfg.Signer.Sign(payload),
	})
}

// settle ends the records of executed transactions, with one pool lock, and
// answers the clients owed their verdicts. Called from the commit pipeline's
// reply stage (after the durable group append) on the executor goroutine,
// once per block, and on the loop for drained transactions that turn out to
// be executed already.
func (g *gateway) settle(outs []replyOut) {
	ids := make([]types.TxID, 0, 64)
	for _, o := range outs {
		ids = append(ids, o.tx.ID)
	}
	// The owed endpoints come back in the order of outs.
	owed := g.pool.Settle(ids, make([]mempool.Owed, 0, 8))
	for _, o := range outs {
		if len(owed) > 0 && owed[0].ID == o.tx.ID {
			g.sendReply(owed[0].To, o.tx.ID, verdictCode(o.committed))
			owed = owed[1:]
		}
	}
}

// sweep drops pool records past the TTL: the clients of pending ones are
// answered with Expired, drained ones go silently. Runs on the event loop
// tick.
func (g *gateway) sweep(now time.Time) {
	expired := g.pool.Sweep(now, nil)
	g.metrics.Expired.Add(uint64(len(expired)))
	for _, e := range expired {
		if e.To != 0 {
			g.sendReply(e.To, e.ID, types.SubmitExpired)
		}
	}
}

// refreshGauges publishes the pool's occupancy; called with the node's other
// gauge refreshes on the event loop.
func (g *gateway) refreshGauges() {
	g.metrics.PendingBytes.Set(uint64(g.pool.PendingBytes()))
	g.metrics.PendingCount.Set(uint64(g.pool.PendingCount()))
}

// watchHandovers applies the liveness rule to every drained record whose
// time has run out (mempool.Pool.Due and Act). A record handed over in the current
// view gets IntraTimeout from the hand-over. One handed over in an earlier
// view gets half of that from the start of the current view: offered again
// at once, the transactions the view change itself carries over (whatever
// the deposed primary had proposed) would be ordered twice, while the new
// primary has to order the rest before the backups' own timers, one
// IntraTimeout from the install, depose it in turn. Runs on the tick.
func (g *gateway) watchHandovers(now time.Time) {
	n := g.n
	primary := n.intra.IsPrimary()
	alive := !primary && now.Sub(n.ledAppend) < n.cfg.IntraTimeout
	byz := n.cfg.ClusterModel == types.Byzantine
	var share []*types.Transaction
	suspect := false
	due := g.pool.Due(now, g.viewSince, n.cfg.IntraTimeout, nil)
	for i := range due {
		d := &due[i]
		switch d.Act = mempool.Rewatch; {
		case n.window.Contains(d.Rec.Tx.ID):
			d.Act = mempool.Unwatch
		case (d.Stale || alive) && (d.State == mempool.Queued ||
			d.State == mempool.Proposed && now.Sub(d.Since) < n.cfg.IntraTimeout):
			// Due a re-offer, but this replica's accumulators hold it, or it
			// proposed it within the timeout: offered again, it could be
			// ordered twice. Watch it again.
			d.Act = mempool.Keep
		case d.Stale || alive:
			// Handed to a primary that is gone — or to one that is alive:
			// blocks it initiated still arrive, so the record waits behind
			// something else (a cross-shard lock, a backed-off lead — a
			// correct primary can take seconds over those, so no
			// per-transaction bound holds) or the hand-over was lost on the
			// way. Deposing the primary cures neither; offering it again
			// cures the second, and the primary's own pool screens it if it
			// was the first.
			d.Act = mempool.Reoffer
		case primary:
			// The backups' timers police a primary; it only keeps the record
			// on watch for the day it is deposed.
		case byz && !d.Shared:
			// One replica's suspicion deposes no Byzantine primary — it only
			// takes that replica out of the quorum. Give the record to the
			// peers first: their watches then run out together with this
			// one's second round, and f+1 suspicions bring the rest along.
			share = append(share, d.Rec.Tx)
		default:
			suspect = true
		}
	}
	g.pool.Act(due, now)
	peers := othersOf(n.cfg.Topology.Members(n.cfg.Cluster), n.cfg.Self)
	for len(share) > 0 {
		k := min(len(share), propagationBatch(n.cfg.BatchSize))
		n.cfg.Net.Multicast(peers, n.propagation(share[:k]))
		share = share[k:]
	}
	if suspect {
		n.send(n.intra.SuspectPrimary(now))
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
		n.releaseAccumulators(now)
	}
	if !g.pool.HasQueued() {
		return
	}
	if n.exec.Full() {
		return // commit pipeline full: stop feeding, keep receiving
	}
	if primary {
		budget := n.cfg.BatchSize*n.cfg.MaxInFlight - len(n.pendingIntra) - len(n.pendingCross)
		n.ingest(g.pool.Drain(min(budget, 256)), now)
		return
	}
	if recs := g.pool.Drain(propagationBatch(n.cfg.BatchSize)); len(recs) > 0 {
		n.cfg.Net.Send(n.intra.Primary(), n.propagation(txsOf(recs)))
	}
}

// txsOf returns the transactions of recs, in order.
func txsOf(recs []*mempool.Record) []*types.Transaction {
	txs := make([]*types.Transaction, len(recs))
	for i, r := range recs {
		txs[i] = r.Tx
	}
	return txs
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
func (n *Node) releaseAccumulators(now time.Time) {
	if len(n.pendingIntra)+len(n.pendingCross) == 0 {
		return
	}
	recs := append(n.pendingIntra, n.pendingCross...)
	n.pendingIntra, n.pendingCross = nil, nil
	n.gw.pool.Requeue(recs, now)
}

// propagationBatch sizes a gateway→primary batch: several sealer batches per
// wire message, bounded by the cross-shard bitmap width.
func propagationBatch(batchSize int) int {
	return min(max(4*batchSize, 16), 64)
}

// ingest routes records the primary just drained into the batch
// accumulators, unless the transaction is already executed (settled at
// once, so its origin gets the verdict), on the chain, misrouted, or still
// led by an earlier cross-shard attempt — a withdrawn attempt backs off for
// longer than a client waits before it retransmits, and batching the
// request again would commit it twice. A skipped record stays handed over;
// its commit, or the TTL sweep, ends it.
func (n *Node) ingest(recs []*mempool.Record, now time.Time) {
	if len(recs) == 0 {
		return
	}
	var done []replyOut
	kept := recs[:0]
	for _, r := range recs {
		tx := r.Tx
		if committed, ok := n.window.Get(tx.ID); ok {
			done = append(done, replyOut{tx: tx, committed: committed})
			continue
		}
		if n.window.Contains(tx.ID) || n.initiatorCluster(tx.Involved) != n.cfg.Cluster ||
			tx.IsCrossShard() && n.cross.Leading(tx.ID) {
			continue
		}
		kept = append(kept, r)
	}
	if len(done) > 0 {
		n.gw.settle(done)
	}
	for _, r := range n.gw.pool.Mark(kept, mempool.Queued, now) {
		cross := r.Tx.IsCrossShard()
		n.tracer.Start(r.Tx.ID, cross, now)
		if cross {
			n.pendingCross = append(n.pendingCross, r)
			continue
		}
		if len(n.pendingIntra) == 0 {
			n.intraSince = now
		}
		n.pendingIntra = append(n.pendingIntra, r)
	}
}
