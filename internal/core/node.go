package core

import (
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/obs"
	"sharper/internal/ordering"
	"sharper/internal/paxos"
	"sharper/internal/pbft"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// nodeConfig is one replica's identity inside a deployment: who it is, which
// cluster it serves, and the fabric, keys, storage and registry it owns.
// Every tunable is read through the embedded *Config: the one resolved
// configuration, shared read-only by every replica a deployment builds.
type nodeConfig struct {
	Self    types.NodeID
	Cluster types.ClusterID
	// ClusterModel is the failure model of this node's cluster; hybrid
	// topologies (§3.4) mix models, so it can differ from Config.Model.
	ClusterModel types.FailureModel
	// Net is the message fabric the node sends and receives through: the
	// simulated network, or this node's own TCP fabric.
	Net      transport.Fabric
	Signer   crypto.Signer
	Verifier crypto.Verifier

	// Storage, when non-nil, is the replica's durability subsystem: the
	// node logs committed blocks and acceptor state through it
	// (persist-before-ack), checkpoints periodically, and — when the store
	// was opened over an existing directory — recovers chain, state, and
	// consensus obligations from it before processing any message. The node
	// owns the handle and closes it on Stop.
	Storage *storage.Store

	// Metrics, when non-nil, is this node's observability registry: the
	// consensus engines, storage, verify pool, scheduler, and transaction
	// tracer all register their series on it. Each node owns exactly one
	// registry (never shared), so fleet roll-ups can Merge without
	// double-counting. Nil disables all metric collection at a branch per
	// update site.
	Metrics *obs.Registry

	*Config
}

// Node is one SharPer replica: it runs the cluster's intra-shard consensus
// engine and the flattened cross-shard engine over its inbox, maintains its
// cluster's ledger view and shard store, and answers clients.
type Node struct {
	cfg   nodeConfig
	inbox <-chan *types.Envelope
	// vpool, under the Byzantine model, verifies inbound signatures on a
	// bounded worker pool between the inbox and the event loop (arrival
	// order preserved), so MAC/ed25519 CPU cost runs ahead of the
	// single-threaded dispatch. Nil under the crash model.
	vpool *crypto.VerifyPool

	intra IntraEngine
	cross *xengine
	// table is the conflict table shared with the cross engine: the single
	// authority over the node's cross-shard slot vote and lead admission,
	// consulted by dispatch for slot-precise deferral.
	table *consensus.ConflictTable

	view  *ledger.View
	store *state.Store
	// exec is the commit pipeline (exec.go): the loop appends decided blocks
	// to the view and hands them off; apply, durability, and replies run on
	// the executor goroutine.
	exec *executor

	// Primary-side request accumulators. pendingIntra is the intra-shard
	// batch accumulator drained by flushIntra (up to BatchSize per
	// consensus instance, bounded by MaxInFlight pipelined instances);
	// pendingCross queues cross-shard requests, launched one batch (same
	// involved-cluster set) at a time.
	pendingIntra []*types.Transaction
	pendingCross []*types.Transaction
	// intraSince is when the oldest accumulated intra-shard request
	// arrived, driving the BatchTimeout partial-batch flush.
	intraSince time.Time
	// crossArrived timestamps queued cross-shard requests, driving the
	// per-set BatchTimeout accumulation in takeLaunchableBatch.
	crossArrived map[types.TxID]time.Time
	// queued tracks membership of the two queues so client retransmissions
	// of queued transactions are not enqueued twice.
	queued map[types.TxID]bool
	// Intra-shard messages deferred because they would bind the chain slot
	// the held cross-shard vote promised away (§3.2), replayed when the
	// conflict table changes. deferredGen is the table generation the
	// deferred batch was parked against.
	deferred    []*types.Envelope
	deferredGen uint64
	// Cross-shard decisions whose parent has not caught up locally yet.
	pendingApply []crossDecision
	// crossWantsDrain is set by the launcher when a queued fresh cross-shard
	// batch is waiting for the chain to drain so this initiator can
	// self-vote at launch; intra proposing yields to it (cross priority).
	crossWantsDrain bool

	// window is the node's one committed-transaction window: every
	// transaction on the chain from the moment its block is appended
	// (pending) and its verdict once executed (committed or rejected). It
	// screens ingest, relaunches and re-delivered decisions, keeps execution
	// idempotent, and answers client retransmissions at any gateway. Entries
	// leave by age only, at the mempool's admission TTL: past it no copy of
	// the transaction can be admitted again (consensus.CommitWindow). Its
	// rejected entries are what checkpoints carry.
	window *consensus.CommitWindow
	// gw is the client-ingress gateway (gateway.go): the mempool behind
	// MsgSubmit and the commit-observation reply path.
	gw *gateway
	// inFlight dedups client retransmissions against proposals that are
	// still working their way through consensus.
	inFlight map[types.TxID]time.Time

	// Chain-sync (state transfer) bookkeeping: a replica that fell behind
	// while blocked asks peers for the blocks it missed. Under the
	// Byzantine model a block is adopted only with f+1 matching copies.
	lastAppend time.Time
	// ledAppend is when the last block this cluster's primary initiated (an
	// intra-shard block, or a cross-shard one this cluster leads) was
	// appended here: the gateway's evidence that the primary is alive.
	ledAppend  time.Time
	syncPeer   int
	tickCount  int
	syncVotes  map[uint64]map[types.NodeID]types.Hash
	syncBlocks map[uint64]map[types.Hash]*types.Block

	committed atomic.Int64
	conflicts atomic.Int64 // cross-shard re-proposals observed
	anomalies atomic.Int64 // ledger append failures (should stay 0)
	stopCh    chan struct{}
	doneCh    chan struct{}
	stopOnce  sync.Once

	// reg is the node's metrics registry (nil when observability is off);
	// tracer samples per-transaction lifecycle stamps into it. gauges mirror
	// scheduler and queue depths into the registry, refreshed on the event
	// loop so off-loop scrapes read consistent last-published values.
	reg          *obs.Registry
	tracer       *obs.TxTracer
	gauges       *nodeGauges
	committedCtr *obs.Counter

	// recoveredBlocks counts the chain blocks loaded from storage at build
	// time (restart tests assert catch-up fetched only the delta).
	recoveredBlocks int
	// lastCkptAttempt rate-limits checkpoint retries after a disk error.
	lastCkptAttempt time.Time
	// pendingRecovery defers state re-execution to Start: genesis accounts
	// are seeded between NewNode and Start, and replay must run over them
	// (or a checkpoint snapshot must replace them) before traffic arrives.
	pendingRecovery *storage.Recovered
}

// newNode builds a replica; call Start to run it.
func newNode(cfg nodeConfig) *Node {
	n := &Node{
		cfg:          cfg,
		inbox:        cfg.Net.Register(cfg.Self),
		view:         ledger.NewView(cfg.Cluster),
		store:        state.NewStore(cfg.Cluster, state.ShardMap{NumShards: len(cfg.Topology.Clusters)}),
		window:       consensus.NewCommitWindow(),
		crossArrived: make(map[types.TxID]time.Time),
		inFlight:     make(map[types.TxID]time.Time),
		queued:       make(map[types.TxID]bool),
		lastAppend:   time.Now(),
		syncVotes:    make(map[uint64]map[types.NodeID]types.Hash),
		syncBlocks:   make(map[uint64]map[types.Hash]*types.Block),
		stopCh:       make(chan struct{}),
		doneCh:       make(chan struct{}),
	}
	genesis := ledger.GenesisHash()
	n.reg = cfg.Metrics
	if n.reg != nil {
		n.tracer = obs.NewTxTracer(n.reg, cfg.TraceSample, 0)
		n.gauges = newNodeGauges(n.reg)
		n.committedCtr = n.reg.Counter("committed_txs")
	}
	n.gw = newGateway(n, cfg.Mempool)
	// The prepared callback is keyed by consensus seq; flushIntra binds the
	// batch to its seq right after Propose, so by the time any quorum forms
	// the binding exists.
	var onPrepared func(seq uint64)
	if n.tracer != nil {
		onPrepared = func(seq uint64) { n.tracer.StampSeq(seq, obs.StagePrepared, time.Now()) }
	}
	// A nil *storage.Store must stay a nil Persister interface.
	var persist consensus.Persister
	if cfg.Storage != nil {
		persist = cfg.Storage
	}
	n.exec = newExecutor(n, cfg.PipelineDepth)
	status := n.chainStatus
	// Validity votes must read fully committed state: wait for every block
	// the loop has committed to reach the store before validating.
	validate := func(tx *types.Transaction) bool {
		n.exec.WaitApplied(uint64(n.view.Len() - 1))
		return n.store.Validate(tx) == nil
	}
	// The conflict table is the scheduling authority shared between the
	// cross engine (slot votes, lead admission) and the node (slot-precise
	// deferral of intra proposals).
	n.table = consensus.NewConflictTable(cfg.Cluster)
	// reserved is the conflict-table eligibility check the ordering
	// policies consult at their vote boundary (a chain slot promised to a
	// cross-shard vote takes no intra vote), so the §3.2 one-vote-per-slot
	// rule holds even on internal replay paths that never cross dispatch.
	ocfg := ordering.Config{
		Topology: cfg.Topology, Cluster: cfg.Cluster, Self: cfg.Self,
		Signer: cfg.Signer, Verifier: cfg.Verifier, Timeout: cfg.IntraTimeout,
		Persist: persist, Reserved: n.table.ConflictsIntra,
		OnPrepared: onPrepared, Trace: cfg.Trace,
	}
	if cfg.ClusterModel == types.Byzantine {
		ocfg.Obs = obs.NewEngineMetrics(n.reg, "pbft")
		n.intra = pbft.New(ocfg, genesis)
	} else {
		ocfg.Obs = obs.NewEngineMetrics(n.reg, "paxos")
		n.intra = paxos.New(ocfg, genesis)
	}
	n.cross = newXEngine(cfg.Topology, cfg.Cluster, cfg.Self, cfg.Signer, cfg.Verifier,
		n.table, status, validate, cfg.LockTimeout, cfg.RetryTimeout, cfg.MaxInFlight,
		cfg.Seed+int64(cfg.Self)+2)
	n.cross.tracer = n.tracer
	n.cross.ring = obs.NewEventRing(0, cfg.Trace)
	if cfg.Storage != nil {
		n.recoverChain(cfg.Storage.Recovered())
	}
	return n
}

// recoverChain rebuilds the ledger view and the intra engine from recovered
// durable state. Shard-store reconstruction waits until Start (see
// pendingRecovery); the chain and the engine's acceptor obligations must be
// in place before anything else reads them.
func (n *Node) recoverChain(rec *storage.Recovered) {
	if rec.Fresh() {
		return
	}
	now := time.Now()
	for _, b := range rec.Blocks {
		if err := n.appendBlock(b); err != nil {
			// A recovered block that does not extend the chain means the
			// files were damaged in a way the CRC frames could not see
			// (e.g. mixed directories). Keep the valid prefix.
			n.anomalies.Add(1)
			break
		}
		n.recoveredBlocks++
	}
	if seq := uint64(n.view.Len() - 1); seq > 0 {
		// Advance the engine to the recovered head; outbound messages and
		// decisions are impossible here (nothing is parked in a fresh
		// engine).
		n.intra.SyncChainHead(seq, n.view.Head(), now)
	}
	n.intra.Restore(rec.View, rec.Promised, rec.Accepted, now)
	n.pendingRecovery = rec
}

// RecoveredBlocks reports how many chain blocks were loaded from storage
// when the node was built (0 for a fresh node).
func (n *Node) RecoveredBlocks() int { return n.recoveredBlocks }

// finishRecovery reconstructs the shard store and the committed-transaction
// window. It runs at Start, after genesis seeding: a checkpoint snapshot
// replaces the seeded balances wholesale (it already contains them), while
// log-replayed blocks re-execute over the store deterministically.
func (n *Node) finishRecovery() {
	rec := n.pendingRecovery
	if rec == nil {
		return
	}
	n.pendingRecovery = nil
	if rec.HaveSnapshot {
		n.store.Restore(rec.Balances, rec.Applied)
	}
	// The checkpoint's failed-transaction list restores the true verdicts
	// for blocks the snapshot already covers. It lists the rejected entries
	// the window held at the checkpoint, which include every rejection whose
	// client timestamp is still inside the admission TTL now; an older
	// transaction's entry may have been swept before the checkpoint, so its
	// verdict is unknown and stays unsettled. Its window entry (pending,
	// from appendBlock) still screens it from ordering, and a client
	// retransmission fails admission as Expired, as after a sweep.
	expired := time.Now().UnixNano() - n.gw.pool.Config().TTL.Nanoseconds()
	for i, b := range rec.Blocks {
		if i >= n.recoveredBlocks {
			break // past the valid prefix recoverChain kept
		}
		idx := uint64(i + 1)
		for j, tx := range b.Txs {
			if idx <= rec.SnapshotSeq {
				// The snapshot already reflects this block; only the window
				// entry is settled, so a retransmission is re-replied (with
				// its original verdict) instead of re-ordered and re-applied.
				if tx.Timestamp >= expired {
					n.window.Put(tx.ID, !rec.FailedTxs[tx.ID])
				}
				n.committed.Add(1)
				continue
			}
			// The logged validity bitmap replays remote shards' vetoes
			// exactly as the original execution saw them.
			n.recoverExecute(tx, rec.Valid[i]&(1<<uint(j)) != 0)
		}
	}
}

// recoverExecute re-applies one logged transaction during recovery: the
// logged validity verdict plus deterministic local validation over the
// chain prefix reproduce the original effects without sending replies.
func (n *Node) recoverExecute(tx *types.Transaction, valid bool) {
	if _, settled := n.window.Get(tx.ID); settled {
		return // ordered twice; the first execution won
	}
	ok := valid && n.store.Apply(tx) == nil
	n.committed.Add(1)
	n.window.Put(tx.ID, ok)
}

// ID returns the node's identity.
func (n *Node) ID() types.NodeID { return n.cfg.Self }

// Cluster returns the node's cluster.
func (n *Node) Cluster() types.ClusterID { return n.cfg.Cluster }

// View returns the node's ledger view (its cluster's chain).
func (n *Node) View() *ledger.View { return n.view }

// Store returns the node's shard store.
func (n *Node) Store() *state.Store { return n.store }

// Committed returns the number of transactions this node has committed.
func (n *Node) Committed() int64 { return n.committed.Load() }

// DebugTrace returns the intra engine's recent protocol events, when the
// engine records them (both bundled engines do). Read it only on a stopped
// or quiesced node.
func (n *Node) DebugTrace() []string {
	if e, ok := n.intra.(interface{ DebugTrace() []string }); ok {
		return e.DebugTrace()
	}
	return nil
}

// Anomalies returns the number of ledger append failures observed (0 in a
// correct run; tests assert on it).
func (n *Node) Anomalies() int64 { return n.anomalies.Load() }

// chainStatus reports the local chain state to the cross-shard engine. The
// committed seq/head pair is read atomically (HeadInfo): seq+1 is the chain
// slot a cross-shard vote reserves in the conflict table.
func (n *Node) chainStatus() chainStatus {
	pSeq, _ := n.intra.ProposedHead()
	cSeq, head := n.view.HeadInfo()
	return chainStatus{
		Seq:  cSeq,
		Head: head,
		// Values retained across a view change also block draining: they may
		// hold a commit quorum at the deposed primary, and a cross-shard
		// block voted on the current head would fork the chain against them.
		Drained: pSeq == cSeq && !n.intra.HasUncommitted(),
	}
}

// Start runs the node's event loop in its own goroutine. If the node was
// built over recovered storage, the shard store is reconstructed first (the
// call sites seed genesis accounts between NewNode and Start, and replay
// must see them).
func (n *Node) Start() {
	n.finishRecovery()
	// The store now reflects the full recovered chain; the pipeline picks up
	// from that height.
	n.exec.start(uint64(n.view.Len() - 1))
	// The pool starts with the loop (not at NewNode) so never-started nodes
	// leak no goroutines. NoopSigner deployments skip it: every envelope
	// verifies trivially, the pipeline would be pure overhead.
	if _, noop := n.cfg.Verifier.(crypto.NoopSigner); !noop {
		n.vpool = crypto.NewVerifyPool(n.cfg.Verifier, n.inbox, 0, 0, n.cfg.VerifyWindow)
		n.vpool.SetMetrics(obs.NewVerifyMetrics(n.reg))
	}
	go n.loop()
}

// Stop terminates the event loop, waits for it to exit, and closes the
// node's storage. Idempotent: teardown paths (RestartNode + deferred
// Deployment.Stop) may both reach the same node.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopCh)
		<-n.doneCh
		// Drain the pipeline before closing storage: every decided block is
		// applied, persisted, and replied, so post-Stop reads see final state.
		n.exec.Close()
		if n.vpool != nil {
			n.vpool.Close()
		}
		n.CloseStorage()
	})
}

// CloseStorage flushes and closes the node's storage handle, if any. Stop
// calls it; deployments call it directly for nodes that never started.
func (n *Node) CloseStorage() {
	if n.cfg.Storage != nil {
		n.cfg.Storage.Close()
	}
}

func (n *Node) loop() {
	defer close(n.doneCh)
	ticker := time.NewTicker(n.cfg.TickInterval)
	defer ticker.Stop()
	// With a verification pool, envelopes arrive pre-verified through its
	// ordered output; the raw inbox is set nil so the select never races the
	// pool's workers for messages.
	inbox := n.inbox
	var verified <-chan *types.Envelope
	if n.vpool != nil {
		inbox = nil
		verified = n.vpool.Out()
	}
	for {
		select {
		case <-n.stopCh:
			return
		case env := <-inbox:
			n.dispatch(env, time.Now())
		case env := <-verified:
			n.dispatch(env, time.Now())
		case now := <-ticker.C:
			n.tick(now)
		}
	}
}

func (n *Node) send(outs []consensus.Outbound) {
	for _, o := range outs {
		n.cfg.Net.Multicast(o.To, o.Env)
	}
}

func (n *Node) dispatch(env *types.Envelope, now time.Time) {
	switch env.Type {
	case types.MsgSubmit:
		n.gw.onSubmit(env, now)

	case types.MsgPropose, types.MsgViewChange, types.MsgNewView:
		// An intra-shard proposal that would bind the chain slot a held
		// cross-shard vote has promised away is deferred until the vote
		// resolves (commit, abort, or expiry — deferral is bounded).
		// Proposals for OTHER slots are processed: the conflict table makes
		// the §3.2 rule slot-precise instead of node-wide, so a locked node
		// keeps voting on non-conflicting intra batches (a lagging replica
		// catching up, pipelined instances above the reservation). View
		// changes still defer conservatively — a new primary's value
		// recovery re-proposes values at arbitrary slots, including the
		// reserved one.
		if deferIntra(n.table, env) {
			n.table.NoteDefer()
			n.deferredGen = n.table.Gen()
			n.deferred = append(n.deferred, env)
			return
		}
		if n.table.Held() {
			n.table.NoteDeferAvoided()
		}
		outs, decs := n.intra.Step(env, now)
		n.send(outs)
		n.applyIntra(decs, now)

	case types.MsgVote, types.MsgCommit:
		outs, decs := n.intra.Step(env, now)
		n.send(outs)
		n.applyIntra(decs, now)

	case types.MsgXPropose, types.MsgXAccept, types.MsgXCommit, types.MsgXAbort:
		outs, decs := n.cross.Step(env, now)
		n.send(outs)
		n.applyCross(decs, now)

	case types.MsgSyncRequest:
		n.onSyncRequest(env)

	case types.MsgSyncResponse:
		n.onSyncResponse(env, now)

	case types.MsgQuery:
		n.onQuery(env)

	default:
		// Baseline-only traffic (the ahl and replica packages' request/reply
		// pair) is not for us.
	}
	n.maybeLaunch(now)
}

func (n *Node) tick(now time.Time) {
	n.tickCount++
	n.refreshGauges()
	n.gw.watchHandovers(now)
	iouts, idecs := n.intra.Tick(now)
	n.send(iouts)
	n.applyIntra(idecs, now)
	outs, decs := n.cross.Tick(now)
	n.send(outs)
	n.applyCross(decs, now)
	n.retryPendingApply(now)
	n.maybeLaunch(now)
	n.maybeSync(now)
	if n.tickCount%64 == 0 {
		// Expiry cadence for the ingest plane: pool TTL sweeps, and window
		// entries past the admission TTL, which no copy of their
		// transaction can pass again.
		n.gw.sweep(now)
		n.window.Sweep(now.Add(-n.gw.pool.Config().TTL))
	}
	if n.cfg.Storage != nil {
		// Fsync cadence is the store's own business (SyncGroup runs a
		// background flusher); the loop only drives checkpoints.
		n.maybeCheckpoint()
	}
}

// maybeCheckpoint snapshots the committed state once the chain has grown
// CheckpointInterval blocks past the last checkpoint, truncating the log
// behind it. Runs in the event loop, so the snapshot is taken at a
// consistent point; the write stalls the node for one file write, which is
// the price of not needing a copy-on-write store.
func (n *Node) maybeCheckpoint() {
	st := n.cfg.Storage
	// The pipeline may still be applying the newest blocks; checkpoint at the
	// durable frontier, where store, log, and verdict list agree.
	if !st.CheckpointDue(n.exec.DurableSeq()) {
		return
	}
	// On a failing disk CheckpointDue stays true; retry at most once per
	// second instead of re-serializing the full snapshot every tick.
	now := time.Now()
	if now.Sub(n.lastCkptAttempt) < time.Second {
		return
	}
	n.lastCkptAttempt = now
	// Quiesce the executor at a group boundary so the snapshot is a
	// consistent cut; the loop keeps receiving while paused, acceptor writes
	// stay on the loop, so no WAL record can race the rotation.
	n.exec.Pause()
	defer n.exec.Resume()
	height := n.exec.DurableSeq()
	view, promised, insts := n.intra.DurableState()
	// The window's rejected entries include every rejected verdict admission
	// can still ask for (finishRecovery settles nothing older); with the
	// executor paused they all sit at or below height.
	if err := st.Checkpoint(height, n.store.Snapshot(), n.store.Applied(), n.window.Rejected(nil),
		view, promised, insts); err != nil {
		// Disk trouble degrades durability, not consensus; the next tick
		// retries.
		return
	}
}

// appendBlock appends a decided block to the view and notes its
// transactions in the window as pending. Every chain append goes through it.
func (n *Node) appendBlock(b *types.Block) error {
	if err := n.view.Append(b); err != nil {
		return err
	}
	n.window.Note(b.Txs)
	// Sync votes are held only at or above the head, so the index just
	// filled, by consensus or by sync, is the one that goes stale.
	idx := uint64(n.view.Len() - 1)
	delete(n.syncVotes, idx)
	delete(n.syncBlocks, idx)
	return nil
}

// handOff moves a block just appended to the DAG into the commit pipeline:
// the executor applies it, group-commits it to the chain log, and answers the
// gateway's clients. The loop's retransmission-dedup map is cleared now —
// the window's pending entries screen the transactions from here on.
func (n *Node) handOff(b *types.Block, valid uint64, traceSeq uint64, digest types.Hash) {
	for _, tx := range b.Txs {
		delete(n.inFlight, tx.ID)
	}
	if len(b.Txs) > 0 && n.initiatorCluster(b.Txs[0].Involved) == n.cfg.Cluster {
		n.ledAppend = n.lastAppend // every append path stamps lastAppend first
	}
	n.exec.enqueue(commitTask{
		seq:      uint64(n.view.Len() - 1),
		block:    b,
		valid:    valid,
		traceSeq: traceSeq,
		digest:   digest,
	})
}

// maybeSync probes a rotating cluster peer for blocks we may have missed.
// It fires fast when there is direct evidence of lag (buffered cross-shard
// decisions) and slowly as a background heartbeat otherwise.
func (n *Node) maybeSync(now time.Time) {
	evidence := len(n.pendingApply) > 0
	stale := now.Sub(n.lastAppend) > 20*n.cfg.TickInterval
	switch {
	case evidence && n.tickCount%2 == 0:
	case stale && n.tickCount%20 == 0:
	default:
		return
	}
	peers := othersOf(n.cfg.Topology.Members(n.cfg.Cluster), n.cfg.Self)
	if len(peers) == 0 {
		return
	}
	n.syncPeer = (n.syncPeer + 1) % len(peers)
	req := &types.SyncRequest{From: uint64(n.view.Len())}
	payload := req.Encode(nil)
	n.cfg.Net.Send(peers[n.syncPeer], &types.Envelope{
		Type: types.MsgSyncRequest, From: n.cfg.Self,
		Payload: payload, Sig: n.cfg.Signer.Sign(payload),
	})
}

// maxSyncBatch bounds the blocks one sync response carries. An honest
// response therefore names no index at or beyond the receiver's head plus
// maxSyncBatch, and a receiver records votes for none.
const maxSyncBatch = 32

// onSyncRequest answers with a bounded run of blocks the requester misses.
func (n *Node) onSyncRequest(env *types.Envelope) {
	req, err := types.DecodeSyncRequest(env.Payload)
	if err != nil {
		return
	}
	have := uint64(n.view.Len())
	if req.From >= have {
		return
	}
	to := req.From + maxSyncBatch
	if to > have {
		to = have
	}
	resp := &types.SyncResponse{From: req.From}
	for i := req.From; i < to; i++ {
		resp.Blocks = append(resp.Blocks, n.view.Block(int(i)))
	}
	payload := resp.Encode(nil)
	n.cfg.Net.Send(env.From, &types.Envelope{
		Type: types.MsgSyncResponse, From: n.cfg.Self,
		Payload: payload, Sig: n.cfg.Signer.Sign(payload),
	})
}

// onSyncResponse adopts missed blocks. Crash model: the sender cannot lie,
// adopt directly. Byzantine model: adopt a block only once f+1 distinct
// peers sent an identical copy for that index (at least one is correct).
func (n *Node) onSyncResponse(env *types.Envelope, now time.Time) {
	if n.cfg.ClusterModel == types.Byzantine {
		if ok, known := env.Auth(); known {
			if !ok {
				return
			}
		} else if !n.cfg.Verifier.Verify(env.From, env.Payload, env.Sig) {
			return
		}
	}
	resp, err := types.DecodeSyncResponse(env.Payload)
	if err != nil {
		return
	}
	for i, b := range resp.Blocks {
		idx, head := resp.From+uint64(i), uint64(n.view.Len())
		switch {
		case n.cfg.ClusterModel != types.Byzantine:
			if idx == head {
				n.adoptBlock(b, now)
			}
		case idx >= head && idx < head+maxSyncBatch:
			// Votes are kept only where an honest response can reach, so
			// a lying peer cannot grow them by naming far indices.
			n.recordSyncVote(idx, env.From, b)
			if idx == head {
				n.adoptVotedBlocks(now)
			}
		}
	}
	n.afterChainAdvance(now)
	n.maybeLaunch(now)
}

func (n *Node) recordSyncVote(idx uint64, from types.NodeID, b *types.Block) {
	h := b.Hash()
	if n.syncVotes[idx] == nil {
		n.syncVotes[idx] = make(map[types.NodeID]types.Hash)
		n.syncBlocks[idx] = make(map[types.Hash]*types.Block)
	}
	n.syncVotes[idx][from] = h
	n.syncBlocks[idx][h] = b
}

// adoptVotedBlocks appends, in order, every next block that has f+1
// matching copies from distinct peers.
func (n *Node) adoptVotedBlocks(now time.Time) {
	f := n.cfg.Topology.F(n.cfg.Cluster)
	for {
		idx := uint64(n.view.Len())
		votes := n.syncVotes[idx]
		if votes == nil {
			return
		}
		counts := make(map[types.Hash]int)
		var winner types.Hash
		for _, h := range votes {
			counts[h]++
			if counts[h] >= f+1 {
				winner = h
			}
		}
		if winner.IsZero() {
			return
		}
		b := n.syncBlocks[idx][winner]
		delete(n.syncVotes, idx)
		delete(n.syncBlocks, idx)
		if !n.adoptBlock(b, now) {
			return
		}
	}
}

// adoptBlock appends a synced block if it extends the chain, executing it
// and advancing the intra engine.
func (n *Node) adoptBlock(b *types.Block, now time.Time) bool {
	if err := n.appendBlock(b); err != nil {
		return false
	}
	n.lastAppend = now
	// The sync path has no validity bitmap (a pre-existing gap shared with
	// live adoption below: local re-validation approximates the vote). A
	// synced cross-shard block was globally decided; replay its effects.
	// Validation is deterministic over the chain prefix, so re-validating
	// locally reproduces the voted verdict for our shard's part.
	n.handOff(b, ^uint64(0), 0, types.Hash{})
	seq, head := n.view.HeadInfo() // the block just appended, hashed once by the view
	outs, decs, orphans := n.intra.SyncChainHead(seq, head, now)
	n.send(outs)
	n.requeueOrphans(orphans)
	n.applyIntra(decs, now)
	return true
}

// deferIntra decides whether an intra-shard protocol message must wait for
// the held cross-shard slot vote. With the conflict table the test is
// slot-precise: only a proposal at the reserved slot (or the view-change
// machinery, which may re-bind it) defers.
func deferIntra(table *consensus.ConflictTable, env *types.Envelope) bool {
	if !table.Held() {
		return false
	}
	switch env.Type {
	case types.MsgViewChange, types.MsgNewView:
		return true
	}
	seq, ok := types.PeekConsensusSeq(env.Payload)
	if !ok {
		return false // malformed; the engine drops it anyway
	}
	return table.ConflictsIntra(seq)
}

// Counters reports the node's cross-shard scheduler counters: protocol
// events, leads in flight, conflict-table size, and deferral precision.
// Like DebugTrace, read it only on a stopped or quiesced node — live
// deployments fetch them over the wire as the sched_* gauges of a metrics
// query, which the event loop refreshes before it answers.
func (n *Node) Counters() *types.SchedStats {
	s := n.cross.Stats()
	s.Node = n.cfg.Self
	return &s
}

// nodeGauges mirror the cross-shard scheduler's counters and the node's
// queue depths into the registry. They are refreshed only on the event loop
// (tick and metrics fetches) because SchedStats walks engine state the loop
// owns; off-loop scrapes read the last published values through the gauges'
// atomics.
type nodeGauges struct {
	proposes, withdraws, grants, decides   *obs.Gauge
	lockExpiries, parks, leads, leadHW     *obs.Gauge
	tableSize, defers, defersAvoided       *obs.Gauge
	selfVoteWaits                          *obs.Gauge
	pendingIntra, pendingCross, deferredIn *obs.Gauge
	inboxDepth                             *obs.Gauge
	pipelineDepth, applyLag                *obs.Gauge
	windowEntries                          *obs.Gauge
}

func newNodeGauges(r *obs.Registry) *nodeGauges {
	return &nodeGauges{
		proposes:      r.Gauge("sched_proposes"),
		withdraws:     r.Gauge("sched_withdraws"),
		grants:        r.Gauge("sched_grants"),
		decides:       r.Gauge("sched_decides"),
		lockExpiries:  r.Gauge("sched_lock_expiries"),
		parks:         r.Gauge("sched_parks"),
		leads:         r.Gauge("sched_leads_in_flight"),
		leadHW:        r.Gauge("sched_lead_high_water"),
		tableSize:     r.Gauge("sched_table_size"),
		defers:        r.Gauge("sched_defers"),
		defersAvoided: r.Gauge("sched_defers_avoided"),
		selfVoteWaits: r.Gauge("sched_self_vote_waits"),
		pendingIntra:  r.Gauge("queue_pending_intra"),
		pendingCross:  r.Gauge("queue_pending_cross"),
		deferredIn:    r.Gauge("queue_deferred_intra"),
		inboxDepth:    r.Gauge("net_inbox_depth"),
		pipelineDepth: r.Gauge("pipeline_depth"),
		applyLag:      r.Gauge("apply_lag"),
		windowEntries: r.Gauge("window_entries"),
	}
}

// refreshGauges publishes the scheduler counters and queue depths; called
// from tick and before answering a metrics fetch.
func (n *Node) refreshGauges() {
	n.gw.refreshGauges()
	g := n.gauges
	if g == nil {
		return
	}
	s := n.cross.Stats()
	g.proposes.Set(s.Proposes)
	g.withdraws.Set(s.Withdraws)
	g.grants.Set(s.Grants)
	g.decides.Set(s.Decides)
	g.lockExpiries.Set(s.LockExpiries)
	g.parks.Set(s.Parks)
	g.leads.Set(s.LeadsInFlight)
	g.leadHW.Set(s.LeadHighWater)
	g.tableSize.Set(s.TableSize)
	g.defers.Set(s.Defers)
	g.defersAvoided.Set(s.DefersAvoided)
	g.selfVoteWaits.Set(s.SelfVoteWaits)
	g.pendingIntra.Set(uint64(len(n.pendingIntra)))
	g.pendingCross.Set(uint64(len(n.pendingCross)))
	g.deferredIn.Set(uint64(len(n.deferred)))
	g.inboxDepth.Set(uint64(len(n.inbox)))
	g.pipelineDepth.Set(uint64(n.exec.Depth()))
	// apply_lag is committed seq − applied seq: how far the store trails the
	// DAG head.
	g.applyLag.Set(uint64(n.view.Len()-1) - n.exec.AppliedSeq())
	// window_entries times the window's bytes per entry explains its share
	// of the heap.
	g.windowEntries.Set(uint64(n.window.Len()))
}

// onQuery answers an operator query (MsgQuery) with the dump its kind byte
// asks for, prefixed by that byte. A malformed request or an unknown kind
// gets no answer.
//   - QueryMetrics: the full registry snapshot, gauges refreshed first so
//     the dump is current, not one tick stale (the driver merges the fleet).
//   - QueryState: the store fingerprint, with the executor paused at a group
//     boundary so it is a consistent cut at an exact chain height.
//   - QueryTrace: the protocol-event rings (empty unless Config.Trace is
//     set); divergence hunts across processes can reach them no other way.
func (n *Node) onQuery(env *types.Envelope) {
	if len(env.Payload) != 1 {
		return
	}
	kind := types.QueryKind(env.Payload[0])
	resp := []byte{byte(kind)}
	switch kind {
	case types.QueryMetrics:
		n.refreshGauges()
		resp = (&types.MetricsDump{Node: n.cfg.Self, Metrics: obs.MetricsToWire(n.reg.Snapshot())}).Encode(resp)
	case types.QueryState:
		n.exec.Pause()
		resp = n.StateDigest().Encode(resp)
		n.exec.Resume()
	case types.QueryTrace:
		resp = (&types.TraceDump{Node: n.cfg.Self, Lines: n.DebugTrace()}).Encode(resp)
	default:
		return
	}
	n.cfg.Net.Send(env.From, &types.Envelope{Type: types.MsgQueryResponse, From: n.cfg.Self, Payload: resp})
}

// StateDigest returns the node's fingerprint at its current applied height
// (the in-process mirror of a QueryState). Safe on a stopped or quiesced
// node.
func (n *Node) StateDigest() *types.StateDigest {
	return &types.StateDigest{
		Node:    n.cfg.Self,
		Height:  n.exec.AppliedSeq(),
		Applied: uint64(n.store.Applied()),
		Hash:    n.store.Fingerprint(),
	}
}

// Metrics returns the node's registry (nil when observability is off).
// Snapshotting it is safe from any goroutine; the event loop owns updates.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Tracer returns the node's lifecycle tracer (nil when observability is
// off); tests and benchmarks read completed traces through it.
func (n *Node) Tracer() *obs.TxTracer { return n.tracer }

// initiatorCluster applies the super-primary rule: min(P) initiates. With
// the optimization off, the node's own cluster initiates if involved
// (falling back to min(P) when not).
func (n *Node) initiatorCluster(set types.ClusterSet) types.ClusterID {
	if !n.cfg.DisableSuperPrimary {
		return set.Min()
	}
	if set.Contains(n.cfg.Cluster) {
		return n.cfg.Cluster
	}
	return set.Min()
}

// proposeIntra adds an intra-shard request to the batch accumulator; the
// accumulator is drained by flushIntra (called from maybeLaunch after every
// dispatch and tick, so a request proposes in the same turn it arrives
// whenever the pipeline has room).
func (n *Node) proposeIntra(tx *types.Transaction, now time.Time) {
	if n.queued[tx.ID] {
		return
	}
	if len(n.pendingIntra) == 0 {
		n.intraSince = now
	}
	n.queued[tx.ID] = true
	n.pendingIntra = append(n.pendingIntra, tx)
}

// inFlightIntra reports the number of pipelined intra-shard instances above
// the committed head.
func (n *Node) inFlightIntra() int {
	pSeq, _ := n.intra.ProposedHead()
	cSeq := uint64(n.view.Len() - 1)
	if pSeq <= cSeq {
		return 0
	}
	return int(pSeq - cSeq)
}

// flushIntra drains the batch accumulator into consensus instances: up to
// BatchSize transactions per block, at most MaxInFlight pipelined instances.
// A partial batch proposes immediately when the pipeline is empty (no added
// latency at low load) and otherwise waits up to BatchTimeout for more
// requests to amortize the instance's quorum cost.
func (n *Node) flushIntra(now time.Time) {
	for len(n.pendingIntra) > 0 {
		// Cross-shard work that needs the chain drained has priority: new
		// intra proposals would keep it from draining and starve the
		// flattened protocol. That means parked cross proposals awaiting a
		// vote, a held slot vote (the next proposal slot is exactly the
		// reserved one), and a lead still waiting to cast its own vote.
		// Merely-queued cross batches (accumulating toward BatchSize behind
		// an in-flight lead) do NOT block intra: that starves it whenever the
		// cross queue never empties.
		if n.cross.Locked() || n.cross.Waiting() > 0 || n.cross.NeedsSlot() ||
			n.crossWantsDrain {
			return
		}
		if n.exec.Full() {
			return // commit pipeline full: stop proposing, keep receiving
		}
		inFlight := n.inFlightIntra()
		if inFlight >= n.cfg.MaxInFlight {
			return
		}
		if len(n.pendingIntra) < n.cfg.BatchSize && inFlight > 0 &&
			now.Sub(n.intraSince) < n.cfg.BatchTimeout {
			return // wait for the batch to fill while the pipeline works
		}
		take := n.cfg.BatchSize
		if take > len(n.pendingIntra) {
			take = len(n.pendingIntra)
		}
		batch := make([]*types.Transaction, take)
		copy(batch, n.pendingIntra)
		n.pendingIntra = n.pendingIntra[take:]
		n.intraSince = now
		for _, tx := range batch {
			delete(n.queued, tx.ID)
			n.tracer.Stamp(tx.ID, obs.StageSeal, now)
		}
		outs, seq := n.intra.Propose(batch, now)
		if seq == 0 {
			// The engine refused (view change, or a fresh primary still
			// replaying a deposed view's values): put the batch back and try
			// again next turn.
			for _, tx := range batch {
				n.queued[tx.ID] = true
			}
			n.pendingIntra = append(batch, n.pendingIntra...)
			return
		}
		if n.tracer != nil {
			ids := make([]types.TxID, len(batch))
			for i, tx := range batch {
				ids[i] = tx.ID
			}
			n.tracer.BindSeq(seq, ids)
			for _, id := range ids {
				n.tracer.Stamp(id, obs.StagePropose, now)
			}
		}
		n.send(outs)
	}
}

func (n *Node) proposeCross(tx *types.Transaction, now time.Time) {
	if n.queued[tx.ID] || n.cross.Leading(tx.ID) {
		// Leading: a withdrawn attempt backs off for longer than a client
		// waits before it retransmits, and longer than inFlight screens a
		// retransmission; batching the request again would commit it twice.
		return
	}
	n.queued[tx.ID] = true
	n.crossArrived[tx.ID] = now
	n.pendingCross = append(n.pendingCross, tx)
	// maybeLaunch (called after every dispatch) initiates immediately when
	// the node is free, so an uncontended request still proposes in the
	// same turn it arrives.
}

// maybeLaunch makes progress on whatever the node was forced to postpone:
// deferred intra messages whose slot conflict may have cleared, queued
// cross-shard initiations the conflict table admits, then the accumulated
// intra batch. It is called after every dispatch and tick, so no release
// transition is missed.
func (n *Node) maybeLaunch(now time.Time) {
	n.replayDeferred(now)
	// The gateway pump runs before the launchers so drained transactions
	// seal in the same turn they leave the pool.
	n.pumpGateway(now)
	n.launchCross(now)
	n.flushIntra(now)
}

// replayDeferred re-dispatches deferred intra messages when the conflict
// table has changed since they parked (messages that still conflict simply
// re-defer). Skipped while the same slot vote that parked them is still
// held unchanged — nothing can have become eligible.
func (n *Node) replayDeferred(now time.Time) {
	if len(n.deferred) == 0 {
		return
	}
	if n.table.Held() && n.table.Gen() == n.deferredGen {
		return
	}
	n.deferredGen = n.table.Gen()
	envs := n.deferred
	n.deferred = nil
	for _, env := range envs {
		// dispatch re-defers whatever still conflicts.
		n.dispatch(env, now)
	}
}

// launchCross initiates every queued cross-shard batch the conflict table
// admits. It walks the queue in arrival order and skips involved-cluster sets
// blocked by an in-flight conflicting lead, so a blocked head-of-line set
// does not stall later disjoint sets.
func (n *Node) launchCross(now time.Time) {
	n.crossWantsDrain = false
	if len(n.pendingCross) == 0 {
		return
	}
	if n.exec.Full() {
		return // commit pipeline full: stop initiating, keep receiving
	}
	for len(n.pendingCross) > 0 {
		batch := n.takeLaunchableBatch(now)
		if batch == nil {
			return
		}
		if batch = n.dropCommitted(batch); len(batch) == 0 {
			continue
		}
		for _, tx := range batch {
			n.inFlight[tx.ID] = now
		}
		n.bindCrossTrace(batch, now)
		n.send(n.cross.Initiate(batch, now))
	}
}

// dropCommitted removes the transactions of a batch about to launch that
// reached the chain while they sat in the queue: a request can wait there
// for seconds behind a blocked cluster set, and meanwhile commit through
// another node's lead (a view change hands forwarded requests to the new
// primary while the deposed one still holds them).
func (n *Node) dropCommitted(batch []*types.Transaction) []*types.Transaction {
	kept := batch[:0]
	for _, tx := range batch {
		if !n.window.Contains(tx.ID) {
			kept = append(kept, tx)
		}
	}
	return kept
}

// bindCrossTrace seals the traced members of a launching cross-shard batch
// and binds them to the batch digest, so the cross engine's digest-keyed
// stamps (propose, lock-grant, prepared) land on them.
func (n *Node) bindCrossTrace(batch []*types.Transaction, now time.Time) {
	if n.tracer == nil {
		return
	}
	for _, tx := range batch {
		n.tracer.Stamp(tx.ID, obs.StageSeal, now)
	}
	n.tracer.BindDigest(types.BatchDigest(batch), batch)
}

// takeLaunchableBatch removes and returns the earliest queued cross-shard
// batch whose involved-cluster set the conflict table admits, coalescing
// later queued transactions with the same set up to BatchSize. A set that
// already has a lead in flight keeps accumulating until its batch fills or
// its oldest request has waited BatchTimeout — launching every arrival as a
// batch-of-one would forfeit the amortization batching buys while gaining
// nothing (the participants grant the pipelined attempts serially anyway).
// It returns nil when every queued set is blocked or still accumulating.
func (n *Node) takeLaunchableBatch(now time.Time) []*types.Transaction {
	launchIdx := -1
	var set types.ClusterSet
	var skipped []types.ClusterSet
	// A FRESH attempt (no same-set lead in flight) launches only when this
	// initiator can cast its own vote immediately: the slot vote free and
	// the chain drained. The initiator is the minimum involved cluster
	// (super-primary routing), so self-voting at launch means every attempt
	// acquires its lowest cluster's slot before any higher one — the
	// lock-ordering that keeps the cross-shard waits-for graph acyclic.
	// Launching fresh attempts while locked let an attempt hold a higher
	// cluster while waiting for its own, and four-cluster wait cycles
	// stalled the deployment on withdraw timers for hundreds of ms.
	// Same-set followers are exempt: they wait only on their already-
	// decided predecessor, which releases unconditionally.
	freshOK := !n.cross.Locked() && n.chainStatus().Drained
scan:
	for i, tx := range n.pendingCross {
		for _, s := range skipped {
			if s.Equal(tx.Involved) {
				continue scan
			}
		}
		if !n.cross.CanInitiate(tx.Involved) {
			skipped = append(skipped, tx.Involved)
			continue
		}
		if n.cross.ActiveLeads(tx.Involved) == 0 {
			if !freshOK {
				// Signal flushIntra to stop feeding the pipeline: this
				// fresh attempt needs the chain drained to launch.
				n.crossWantsDrain = true
				skipped = append(skipped, tx.Involved)
				continue
			}
		} else if now.Sub(n.crossArrived[tx.ID]) < n.cfg.RetryTimeout {
			// A lead over this set is already working: only a FULL follow-up
			// batch launches alongside it, and only when batching is on at
			// all. Partial batches wait for the in-flight lead to decide
			// (the launch then happens in the same dispatch) — splitting
			// batches across pipelined leads costs more per-block overhead
			// than the pipelining recovers,
			// and single-transaction "batches" gain nothing from a follower
			// (the per-chain commit cadence is one block per accept/commit
			// round trip regardless). The RetryTimeout fallback bounds the
			// wait behind a wedged (dormant, backing-off) lead.
			full := false
			if n.cfg.BatchSize > 1 {
				count := 0
				for _, later := range n.pendingCross[i:] {
					if later.Involved.Equal(tx.Involved) {
						count++
					}
				}
				full = count >= n.cfg.BatchSize
			}
			if !full {
				skipped = append(skipped, tx.Involved)
				continue
			}
		}
		launchIdx = i
		set = tx.Involved
		break
	}
	if launchIdx < 0 {
		return nil
	}
	batch := make([]*types.Transaction, 0, n.cfg.BatchSize)
	rest := n.pendingCross[:0]
	for i, tx := range n.pendingCross {
		if i >= launchIdx && len(batch) < n.cfg.BatchSize && tx.Involved.Equal(set) {
			batch = append(batch, tx)
		} else {
			rest = append(rest, tx)
		}
	}
	n.pendingCross = rest
	for _, tx := range batch {
		delete(n.queued, tx.ID)
		delete(n.crossArrived, tx.ID)
	}
	return batch
}

// applyIntra appends intra-shard decisions to the ledger, executes every
// transaction of each decided batch, and replies to clients.
func (n *Node) applyIntra(decs []consensus.Decision, now time.Time) {
	for _, d := range decs {
		if err := n.appendBlock(d.Block); err != nil {
			n.anomalies.Add(1)
			continue
		}
		if n.tracer != nil {
			// A fresh clock read, not the dispatch-entry now: the engine's
			// prepared callback stamped inside Step, after now was taken.
			n.tracer.StampSeq(d.Seq, obs.StageCommitted, time.Now())
		}
		n.lastAppend = now
		n.handOff(d.Block, ^uint64(0), d.Seq, types.Hash{})
	}
	if len(decs) > 0 {
		n.afterChainAdvance(now)
	}
}

// applyCross appends cross-shard decisions, buffering any whose parent has
// not been reached locally yet.
func (n *Node) applyCross(decs []crossDecision, now time.Time) {
	for _, d := range decs {
		n.applyCrossOne(d, now)
	}
}

func (n *Node) applyCrossOne(d crossDecision, now time.Time) {
	slot := -1
	for i, c := range d.Involved() {
		if c == n.cfg.Cluster {
			slot = i
			break
		}
	}
	if slot < 0 || slot >= len(d.Hashes) {
		return
	}
	// Dedup against re-delivered decisions: skip only when every member
	// transaction already landed. A partially-contained batch (a client
	// retransmission raced an earlier attempt that committed one member
	// alone) must still append — duplicates across blocks are tolerated by
	// the ledger and execution is idempotent, while skipping would silently
	// drop the globally-decided fresh transactions in the batch.
	if n.onChain(d.Txs) {
		return
	}
	if d.Hashes[slot] != n.view.Head() {
		// Our chain is behind the agreed parent; retry after intra commits.
		n.pendingApply = append(n.pendingApply, d)
		return
	}
	block := &types.Block{Txs: d.Txs, Parents: d.Hashes}
	if err := n.appendBlock(block); err != nil {
		n.anomalies.Add(1)
		return
	}
	if n.tracer != nil {
		n.tracer.StampDigest(d.Digest, obs.StageCommitted, time.Now())
	}
	n.lastAppend = now
	n.handOff(block, d.Valid, 0, d.Digest)
	seq, head := n.view.HeadInfo() // the block just appended, hashed once by the view
	outs, decs, orphans := n.intra.SyncChainHead(seq, head, now)
	n.send(outs)
	n.requeueOrphans(orphans)
	n.applyIntra(decs, now)
	n.afterChainAdvance(now)
}

// onChain reports whether every transaction of a batch is in the window.
func (n *Node) onChain(txs []*types.Transaction) bool {
	for _, tx := range txs {
		if !n.window.Contains(tx.ID) {
			return false
		}
	}
	return true
}

// requeueOrphans re-accumulates this primary's transactions whose pipeline
// slots were taken by an externally decided block; they ride in the next
// batch.
func (n *Node) requeueOrphans(orphans []*types.Transaction) {
	for _, tx := range orphans {
		if !n.window.Contains(tx.ID) && !n.queued[tx.ID] {
			if len(n.pendingIntra) == 0 {
				n.intraSince = n.lastAppend
			}
			n.queued[tx.ID] = true
			n.pendingIntra = append(n.pendingIntra, tx)
		}
	}
}

// afterChainAdvance wakes the cross engine (parked proposals may now be
// votable) and retries buffered cross applications.
func (n *Node) afterChainAdvance(now time.Time) {
	outs, decs := n.cross.OnChainAdvanced(now)
	n.send(outs)
	n.applyCross(decs, now)
	n.retryPendingApply(now)
}

func (n *Node) retryPendingApply(now time.Time) {
	if len(n.pendingApply) == 0 {
		return
	}
	pending := n.pendingApply
	n.pendingApply = nil
	for _, d := range pending {
		n.applyCrossOne(d, now)
	}
}
