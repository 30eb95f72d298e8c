package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/obs"
	"sharper/internal/storage"
	"sharper/internal/types"
)

// This file is the node's commit pipeline. The event loop's only commit-side
// job is appending a decided block to the DAG view; everything downstream —
// applying transactions to the shard store, the durable chain-log append, and
// client replies — runs on the executor goroutine:
//
//	loop:     append to DAG ─┐
//	executor:                └─> apply (parallel waves) ─> group append+fsync ─> reply
//
// Invariants:
//   - Persist-before-ack: a reply leaves the node only after its block's
//     chain-log append returned under the configured sync policy.
//   - Blocks apply in chain order; within a block, transactions touching a
//     common stripe apply in block order (wave partitioning), so the store is
//     byte-identical to serial execution.
//   - Backpressure never blocks the loop: enqueue always succeeds (a decided
//     block must execute), and Full() tells the proposal paths to stop
//     feeding consensus until the pipeline drains.

// commitTask is one committed block handed from the event loop to the
// executor, with everything the off-loop stages need captured at hand-off
// time.
type commitTask struct {
	seq      uint64 // chain index the block was appended at
	block    *types.Block
	valid    uint64     // decision validity bitmap (all ones for intra)
	traceSeq uint64     // intra consensus seq for tracer stamps (0: none)
	digest   types.Hash // cross batch digest for tracer stamps (zero: none)
}

// replyOut is one verdict owed to the gateway after the durable group append.
type replyOut struct {
	tx        *types.Transaction
	committed bool
	resend    bool // ordered twice: the verdict is the first execution's
}

// applyJob is one transaction's slot in a block's wave schedule.
type applyJob struct {
	tx   *types.Transaction
	mask uint64
	wave int
	ok   bool
}

const (
	// maxCommitGroup bounds how many queued blocks one group-commit covers:
	// one chain-log write and (under SyncAlways) one fsync amortized over the
	// blocks that accumulated while the previous group was persisting.
	maxCommitGroup = 32
	// maxApplyWorkers caps the per-node worker pool for parallel apply waves;
	// the effective pool never exceeds the schedulable parallelism (see
	// newExecutor), because dispatching map updates to goroutines that can
	// only run after the dispatcher yields is pure overhead.
	maxApplyWorkers = 4
	// minParallelWave: waves smaller than this apply serially — dispatching a
	// couple of map updates to workers costs more than it saves.
	minParallelWave = 3
)

type executor struct {
	n       *Node
	limit   int // queue depth at which Full() reports backpressure
	workers int // parallel-apply pool size (0: strictly serial apply)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []commitTask
	closed bool
	paused int  // outstanding Pause requests
	idle   bool // executor is parked at a group boundary

	depth      atomic.Int64  // blocks enqueued but not fully processed
	appliedSeq atomic.Uint64 // highest chain index applied to the store
	durableSeq atomic.Uint64 // highest chain index group-committed to the log

	jobCh   chan func()
	started bool
	done    chan struct{}

	// Consumer-goroutine scratch, reused across blocks to keep the
	// steady-state pipeline allocation-free.
	jobs      []applyJob
	waveMasks []uint64
	members   []int
	recs      []storage.CommitRecord
}

func newExecutor(n *Node, limit int) *executor {
	e := &executor{
		n:     n,
		limit: limit,
		idle:  true,
		done:  make(chan struct{}),
	}
	// One P runs one goroutine at a time: a worker pool would serialize
	// anyway, paying channel handoffs for nothing. Apply strictly serially
	// and leave the waves to machines that can actually run them.
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		e.workers = maxApplyWorkers
		if e.workers > procs-1 {
			e.workers = procs - 1
		}
		e.jobCh = make(chan func(), 64)
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// start launches the pipeline at base, the chain height the store already
// reflects (recovery replays synchronously before Start).
func (e *executor) start(base uint64) {
	e.appliedSeq.Store(base)
	e.durableSeq.Store(base)
	e.started = true
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
	go e.run()
}

func (e *executor) worker() {
	for f := range e.jobCh {
		f()
	}
}

// enqueue hands a committed block to the pipeline. It never blocks and never
// refuses — a decided block must execute no matter how deep the queue is;
// backpressure happens at the proposal sources via Full.
func (e *executor) enqueue(t commitTask) {
	e.depth.Add(1)
	e.mu.Lock()
	e.queue = append(e.queue, t)
	if len(e.queue) == 1 {
		// The consumer only sleeps on an empty queue; a non-empty append
		// has nobody to wake.
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// Full reports whether the proposal paths should stop feeding consensus.
func (e *executor) Full() bool { return e.depth.Load() >= int64(e.limit) }

// Depth returns the number of blocks in flight through the pipeline.
func (e *executor) Depth() int64 { return e.depth.Load() }

// AppliedSeq returns the highest chain index applied to the store.
func (e *executor) AppliedSeq() uint64 { return e.appliedSeq.Load() }

// DurableSeq returns the highest chain index durably appended to the log.
func (e *executor) DurableSeq() uint64 { return e.durableSeq.Load() }

// WaitApplied blocks until every block at or below seq has been applied to
// the store. The cross engine's validity vote goes through it so votes read
// fully committed state.
func (e *executor) WaitApplied(seq uint64) {
	if e.appliedSeq.Load() >= seq {
		return
	}
	e.mu.Lock()
	for e.appliedSeq.Load() < seq && !e.closed {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// Pause quiesces the executor at a group boundary: when it returns, the
// store and the chain log both reflect exactly DurableSeq and nothing moves
// until Resume. Checkpoints and fingerprint audits use it to cut a
// consistent snapshot without stopping the event loop's intake.
func (e *executor) Pause() {
	e.mu.Lock()
	e.paused++
	for e.started && !e.idle && !e.closed {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// Resume releases a Pause.
func (e *executor) Resume() {
	e.mu.Lock()
	e.paused--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Close drains the queue, finishes every remaining block (so post-Stop reads
// of balances and counters see final state), and stops the workers. Called
// after the event loop has exited: nothing enqueues anymore.
func (e *executor) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	started := e.started
	e.mu.Unlock()
	if started {
		<-e.done
	}
	if e.jobCh != nil {
		close(e.jobCh)
	}
}

func (e *executor) run() {
	defer close(e.done)
	for {
		e.mu.Lock()
		for !e.closed && (e.paused > 0 || len(e.queue) == 0) {
			e.idle = true
			e.cond.Broadcast()
			e.cond.Wait()
		}
		if e.closed && len(e.queue) == 0 {
			e.idle = true
			e.cond.Broadcast()
			e.mu.Unlock()
			return
		}
		take := len(e.queue)
		if take > maxCommitGroup {
			take = maxCommitGroup
		}
		group := make([]commitTask, take)
		copy(group, e.queue)
		e.queue = e.queue[take:]
		e.idle = false
		e.mu.Unlock()
		e.process(group)
	}
}

// process runs one group through the three stages: apply every block (waves),
// one durable append for the whole group, then the replies.
func (e *executor) process(group []commitTask) {
	n := e.n
	outs := make([][]replyOut, len(group))
	for i := range group {
		t := &group[i]
		outs[i] = e.applyBlock(t)
		if n.tracer != nil {
			e.stamp(t, obs.StageExecuted)
		}
		// Lock-free publish: WaitApplied's fast path polls the atomic;
		// sleepers are woken by the single post-group broadcast below.
		e.appliedSeq.Store(t.seq)
	}
	if n.cfg.Storage != nil {
		recs := e.recs[:0]
		for _, t := range group {
			recs = append(recs, storage.CommitRecord{Seq: t.seq, Valid: t.valid, Block: t.block})
		}
		n.cfg.Storage.AppendCommitBatch(recs)
		e.recs = recs[:0]
	}
	if n.tracer != nil {
		for i := range group {
			e.stamp(&group[i], obs.StagePersisted)
		}
	}
	e.mu.Lock()
	e.durableSeq.Store(group[len(group)-1].seq)
	e.cond.Broadcast()
	e.mu.Unlock()
	for _, o := range outs {
		e.sendReplies(o)
	}
	e.depth.Add(-int64(len(group)))
}

func (e *executor) stamp(t *commitTask, st obs.Stage) {
	ts := time.Now()
	if t.traceSeq != 0 {
		e.n.tracer.StampSeq(t.traceSeq, st, ts)
	}
	if !t.digest.IsZero() {
		e.n.tracer.StampDigest(t.digest, st, ts)
	}
}

// applyBlock applies one block's transactions with conflict-partitioned
// parallelism: wave w collects transactions whose stripe footprints are
// mutually disjoint; a transaction conflicting with an earlier wave runs in
// a later one, preserving same-stripe block order. Disjoint waves' members
// run concurrently on the worker pool. Vetoed transactions (validity bit
// clear) never touch the store. With no worker pool (single-P runtime) the
// schedule degenerates to strictly serial block order — same store bytes,
// none of the partitioning cost.
func (e *executor) applyBlock(t *commitTask) []replyOut {
	n := e.n
	txs := t.block.Txs
	outs := make([]replyOut, 0, len(txs))
	jobs := e.jobs[:0]
	for i, tx := range txs {
		if committed, done := n.window.Get(tx.ID); done {
			// Ordered twice (a retransmission raced a slow commit): the
			// first execution won; re-reply only.
			outs = append(outs, replyOut{tx: tx, committed: committed, resend: true})
			continue
		}
		if t.valid&(1<<uint(i)) == 0 {
			jobs = append(jobs, applyJob{tx: tx, wave: -1})
			continue
		}
		j := applyJob{tx: tx}
		if e.workers > 0 {
			j.mask = n.store.StripeMask(tx)
		}
		jobs = append(jobs, j)
	}
	if e.workers > 0 {
		e.applyWaves(jobs)
	} else {
		for k := range jobs {
			if jobs[k].wave < 0 {
				continue
			}
			jobs[k].ok = n.store.Apply(jobs[k].tx) == nil
		}
	}
	for k := range jobs {
		j := &jobs[k]
		n.committed.Add(1)
		n.committedCtr.Inc()
		n.window.Put(j.tx.ID, j.ok)
		outs = append(outs, replyOut{tx: j.tx, committed: j.ok})
	}
	e.jobs = jobs[:0]
	return outs
}

// applyWaves partitions jobs into conflict-free waves and runs each wave's
// members concurrently on the worker pool (small waves stay serial).
func (e *executor) applyWaves(jobs []applyJob) {
	n := e.n
	waveMasks := e.waveMasks[:0]
	for k := range jobs {
		if jobs[k].wave < 0 {
			continue
		}
		w := 0
		for i := len(waveMasks) - 1; i >= 0; i-- {
			if waveMasks[i]&jobs[k].mask != 0 {
				w = i + 1
				break
			}
		}
		if w == len(waveMasks) {
			waveMasks = append(waveMasks, 0)
		}
		waveMasks[w] |= jobs[k].mask
		jobs[k].wave = w
	}
	for w := range waveMasks {
		members := e.members[:0]
		for k := range jobs {
			if jobs[k].wave == w {
				members = append(members, k)
			}
		}
		if len(members) < minParallelWave {
			for _, k := range members {
				jobs[k].ok = n.store.Apply(jobs[k].tx) == nil
			}
			e.members = members[:0]
			continue
		}
		var wg sync.WaitGroup
		wg.Add(len(members) - 1)
		for _, k := range members[1:] {
			k := k
			e.jobCh <- func() {
				jobs[k].ok = n.store.Apply(jobs[k].tx) == nil
				wg.Done()
			}
		}
		jobs[members[0]].ok = n.store.Apply(jobs[members[0]].tx) == nil
		wg.Wait()
		e.members = members[:0]
	}
	e.waveMasks = waveMasks[:0]
}

// sendReplies settles a block's transactions with the gateway after the
// group's durable append, in one pool call: every replica that admitted a
// transaction owes its submitter a verdict from its own commit observation.
func (e *executor) sendReplies(outs []replyOut) {
	if tr := e.n.tracer; tr != nil {
		ts := time.Now() // one clock read per block; stamps are block-grained anyway
		for _, o := range outs {
			if !o.resend {
				tr.Finish(o.tx.ID, ts)
			}
		}
	}
	e.n.gw.settle(outs)
}
