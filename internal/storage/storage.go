// Package storage is the per-replica durability subsystem. Three kinds of
// files live in a replica's data directory, all built from length-prefixed,
// CRC-framed records over the types package's canonical codecs:
//
//   - chain.log — the append-only block log: every committed block, in
//     chain order, written before its effects happen and never rewritten.
//   - wal-<height>.log — the acceptor log: accepted-but-uncommitted
//     consensus instances and view positions, written BEFORE the message
//     they vouch for leaves the node (persist-before-ack), rotated and
//     truncated at each checkpoint.
//   - checkpoint-<height>.ckpt — a snapshot of the shard store (balances +
//     applied counter) at a chain height, so recovery re-executes only the
//     blocks above it. O(accounts), not O(chain).
//
// Crash-restart recovery rebuilds a warm replica from chain + checkpoint +
// acceptor log; torn or corrupted tails are detected by the CRC frames and
// truncated at the last valid record. The paper's system model (§2.1) gives
// replicas stable storage; this package is that storage.
//
// Durability contract, by layer:
//
//   - Acceptor state (accepts, promises) is written to the log BEFORE the
//     message it vouches for leaves the node (consensus.Persister,
//     persist-before-ack). The write always reaches the kernel before the
//     send, so killing the process (kill -9) can never make a replica renege
//     on a promise or an acceptance.
//   - Committed blocks are logged after the local append succeeds and before
//     the block's effects (execution, client replies) happen. Losing the
//     tail commit record is safe — the cluster quorum holds the block, and
//     chain sync refetches it on restart.
//   - The fsync policy (SyncPolicy) decides what survives an OS or machine
//     crash: SyncAlways fsyncs every record, SyncGroup batches fsyncs into
//     one per node tick (bounded window), SyncNone leaves it to the kernel.
package storage

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// SyncPolicy selects when the write-ahead log is fsynced. Every policy
// writes records to the kernel before the corresponding protocol message is
// sent, so process death never loses acknowledged state; the policies differ
// only in what an OS/power failure can take.
type SyncPolicy int

const (
	// SyncGroup (the default) batches fsyncs: a background flusher syncs
	// dirty log data every flushInterval, amortizing one fsync over every
	// record the window's traffic produced without ever blocking the node's
	// event loop on the disk. An OS crash can lose at most one window of
	// acknowledgements; a process crash loses nothing (the writes are
	// already in the kernel).
	SyncGroup SyncPolicy = iota
	// SyncNone never fsyncs; the kernel writes back on its own schedule.
	// Process crashes lose nothing, OS crashes may.
	SyncNone
	// SyncAlways fsyncs after every record — full persist-before-ack even
	// against power failure, at a per-record latency cost.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the flag/env spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group", "", "1", "true":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	default:
		return SyncGroup, fmt.Errorf("storage: unknown sync policy %q (want none, group, or always)", s)
	}
}

// Options tunes a Store.
type Options struct {
	// Sync is the fsync policy (default SyncGroup).
	Sync SyncPolicy
	// CheckpointInterval is how many committed blocks accumulate before the
	// next checkpoint (default 256). Checkpoints bound both recovery replay
	// and log growth.
	CheckpointInterval int
	// Metrics, when non-nil, receives storage instrumentation (fsync
	// latency, WAL bytes, checkpoint count). Each store wants its own
	// bundle: the handles belong to one node's registry.
	Metrics *obs.StoreMetrics
}

func (o *Options) fill() {
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 256
	}
}

// Recovered is the durable state Open reconstructed, ready to warm a node.
type Recovered struct {
	// Blocks is the committed chain after genesis: Blocks[i] is chain index
	// i+1, replayed from the append-only chain log. Valid[i] is block i's
	// per-transaction validity bitmap (the cross-shard vote outcome; all
	// ones for intra-shard blocks).
	Blocks []*types.Block
	Valid  []uint64
	// HaveSnapshot reports whether a checkpoint supplied Balances/Applied.
	// Without one, the store state is rebuilt by re-executing Blocks over
	// the (deterministic) genesis seed.
	HaveSnapshot bool
	// SnapshotSeq is the chain height Balances reflects (0 when none).
	SnapshotSeq uint64
	// Balances and Applied are the shard store snapshot at SnapshotSeq.
	Balances map[types.AccountID]int64
	Applied  int
	// FailedTxs are the ordered-but-rejected transactions at or below
	// SnapshotSeq, for honest reply-cache reconstruction.
	FailedTxs map[types.TxID]bool
	// View and Promised restore the intra engine's view position.
	View, Promised uint64
	// Accepted are the accepted-but-uncommitted instances above the
	// recovered chain head, which the engine must keep honoring.
	Accepted []consensus.DurableInstance
}

// Fresh reports whether recovery found no prior state at all.
func (r *Recovered) Fresh() bool {
	return len(r.Blocks) == 0 && !r.HaveSnapshot && r.View == 0 && r.Promised == 0 && len(r.Accepted) == 0
}

// Store is one replica's durable storage handle: an open write-ahead log
// segment plus the state recovered at Open time. It is safe for concurrent
// use, though in practice only the node's event loop writes.
type Store struct {
	dir  string
	opts Options

	mu sync.Mutex
	// chain is the append-only block log (chain.log): commit records from
	// chain index 1 up, never rewritten or truncated (the chain IS the
	// data; checkpoints only snapshot derived state). Writes go through
	// chainW, a userspace buffer: unlike acceptor records, chain records
	// have no persist-before-ack obligation — a lost tail is refetched from
	// the cluster by chain sync — so they skip the per-record syscall. The
	// buffer is flushed by the SyncGroup flusher, at checkpoints, and at
	// Close (and whenever it fills).
	chain      *os.File
	chainW     *bufio.Writer
	chainDirty bool
	// wal is the current acceptor-log segment (wal-<base>.log):
	// accepted-but-uncommitted instances and view positions, rotated and
	// truncated at each checkpoint.
	wal      *os.File
	walBase  uint64
	walDirty bool
	ckptSeq  uint64
	closed   bool
	buf      []byte // framed-record scratch, reused under mu (see frameRecord)

	// flushStop terminates the SyncGroup background flusher.
	flushStop chan struct{}
	flushDone chan struct{}

	rec Recovered
}

// flusherSeq staggers colocated stores' flusher phases.
var flusherSeq atomic.Int64

// flushInterval is the SyncGroup flusher cadence — the bounded window of
// acknowledged acceptor state an OS crash can cost (a process crash costs
// nothing: every record is in the kernel before its ack leaves). The window
// is deliberately generous: every fsync forces a filesystem journal commit
// that stalls all concurrent appenders, so a colocated deployment's fsync
// rate must stay well below the journal's commit throughput or disk latency
// leaks into consensus latency (measured here: halving the window costs
// double-digit percent throughput with 12 colocated replicas). 50ms is
// still 4× tighter than e.g. PostgreSQL's default wal_writer_delay (200ms).
const flushInterval = 50 * time.Millisecond

// Open recovers the replica state under dir (creating it if needed) and
// opens the log for appending. Corrupted or torn log tails are detected by
// the CRC frames and truncated at the last valid record; a damaged newest
// checkpoint falls back to the previous one.
func Open(dir string, opts Options) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}

	// The chain log holds every committed block; a torn tail is truncated.
	if err := s.replayChain(filepath.Join(dir, chainFile)); err != nil {
		return nil, err
	}
	height := uint64(len(s.rec.Blocks))

	// The shard-store snapshot is trusted only when the chain log durably
	// reaches its height (Checkpoint fsyncs the chain first, so a shorter
	// chain means the files were damaged independently).
	if snap := loadBestCheckpoint(dir); snap != nil && snap.height <= height {
		s.ckptSeq = snap.height
		s.rec.HaveSnapshot = true
		s.rec.SnapshotSeq = snap.height
		s.rec.Balances = snap.balances
		s.rec.Applied = snap.applied
		s.rec.FailedTxs = make(map[types.TxID]bool, len(snap.failed))
		for _, id := range snap.failed {
			s.rec.FailedTxs[id] = true
		}
	}

	bases, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	accepted := make(map[uint64]consensus.DurableInstance)
	for i, base := range bases {
		tail := i == len(bases)-1
		if err := s.replaySegment(filepath.Join(dir, walName(base)), tail, accepted); err != nil {
			return nil, err
		}
	}
	for seq, inst := range accepted {
		if seq > height {
			s.rec.Accepted = append(s.rec.Accepted, inst)
		}
	}
	sort.Slice(s.rec.Accepted, func(i, j int) bool { return s.rec.Accepted[i].Seq < s.rec.Accepted[j].Seq })

	cf, err := os.OpenFile(filepath.Join(dir, chainFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	s.chain = cf
	s.chainW = bufio.NewWriterSize(cf, 64<<10)

	// Open the newest acceptor segment for appending (creating the first
	// one on a fresh directory). Older segments are NOT deleted here: a
	// crash may have torn the newest segment's rotation seed, leaving an
	// old segment as the only durable copy of a live acceptance — cleanup
	// belongs to the next successful Checkpoint, which re-seeds everything
	// live into a fresh fsynced segment first.
	base := s.ckptSeq
	if len(bases) > 0 {
		base = bases[len(bases)-1]
	}
	f, err := os.OpenFile(filepath.Join(dir, walName(base)), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		cf.Close()
		return nil, err
	}
	s.wal = f
	s.walBase = base
	if opts.Sync == SyncGroup {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return s, nil
}

// replayChain loads the committed chain from the append-only block log:
// contiguous commit records from index 1. The first invalid or out-of-order
// frame ends the chain; the file is truncated there so appends extend a
// valid log.
func (s *Store) replayChain(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	off := 0
	for off < len(data) {
		payload, used, err := readFrame(data[off:])
		if err != nil {
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil || rec.kind != recCommit || rec.seq != uint64(len(s.rec.Blocks))+1 {
			break
		}
		s.rec.Blocks = append(s.rec.Blocks, rec.block)
		s.rec.Valid = append(s.rec.Valid, rec.valid)
		off += used
	}
	if off < len(data) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("storage: truncating torn chain tail: %w", err)
		}
	}
	return nil
}

// flusher is the SyncGroup background goroutine: it fsyncs dirty acceptor
// records every flushInterval, off the node's event loop, so consensus
// latency never rides on disk latency. Only the acceptor log needs the
// cadence — losing unsynced chain-log tail records is safe (the cluster
// quorum holds every committed block and chain sync refetches it), and the
// chain is fsynced at every checkpoint and at Close. The fsync itself runs
// outside the store mutex — os.File is safe for concurrent use, and writes
// landing during the fsync are simply picked up by the next window.
func (s *Store) flusher() {
	defer close(s.flushDone)
	// Colocated replicas open their stores nearly simultaneously; a phase
	// offset keeps their fsyncs from arriving at the filesystem journal in
	// synchronized bursts.
	select {
	case <-time.After(time.Duration(flusherSeq.Add(1)) * flushInterval / 7 % flushInterval):
	case <-s.flushStop:
		return
	}
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.chainW != nil {
				s.chainW.Flush() // chain tail to the kernel (no fsync needed)
			}
			wf := s.wal
			walDirty := s.walDirty && !s.closed
			s.walDirty = false
			s.mu.Unlock()
			if walDirty && wf != nil {
				s.timedSync(wf) // a swapped-out (checkpoint-rotated) file syncs harmlessly
			}
		}
	}
}

// walSegments lists the log segment bases in dir, ascending.
func walSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []uint64
	for _, e := range entries {
		if b, ok := parseSeqName(e.Name(), walPrefix, walSuffix); ok {
			bases = append(bases, b)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// replaySegment applies one acceptor-log segment's records to the recovered
// state. The first invalid frame ends the segment; when the segment is the
// log's tail, the file is truncated there so future appends extend a valid
// log.
func (s *Store) replaySegment(path string, tail bool, accepted map[uint64]consensus.DurableInstance) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		payload, used, err := readFrame(data[off:])
		if err != nil {
			break // torn or corrupted tail: stop at the last valid record
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		off += used
		switch rec.kind {
		case recAccept:
			accepted[rec.seq] = consensus.DurableInstance{
				Seq: rec.seq, View: rec.view, Parent: rec.parent, Digest: rec.digest, Txs: rec.txs,
			}
		case recView:
			if rec.view > s.rec.View {
				s.rec.View = rec.view
			}
			if rec.promised > s.rec.Promised {
				s.rec.Promised = rec.promised
			}
		default:
			// Commit records live in the chain log; one here is skipped.
		}
	}
	if tail && off < len(data) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("storage: truncating torn log tail of %s: %w", path, err)
		}
	}
	return nil
}

// Recovered returns the state reconstructed at Open time.
func (s *Store) Recovered() *Recovered { return &s.rec }

// Dir returns the storage directory.
func (s *Store) Dir() string { return s.dir }

// writeLocked writes the framed record(s) staged in s.buf to f, tracking
// dirtiness in *dirty. The error reports a record that did not reach the
// kernel (torn short writes are left for recovery's CRC truncation). Caller
// holds mu and has built s.buf with beginFrame/finishFrame.
func (s *Store) writeLocked(f *os.File, dirty *bool) error {
	if s.closed || f == nil {
		return fmt.Errorf("storage: store is closed")
	}
	if _, err := f.Write(s.buf); err != nil {
		return err // disk full/error; recovery truncates at the last whole record
	}
	s.opts.Metrics.WAL().Add(uint64(len(s.buf)))
	if s.opts.Sync == SyncAlways {
		return s.timedSync(f)
	}
	*dirty = true
	return nil
}

// timedSync fsyncs f, feeding the latency histogram when one is attached.
func (s *Store) timedSync(f *os.File) error {
	if s.opts.Metrics == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	s.opts.Metrics.Fsync().Observe(uint64(time.Since(start).Microseconds()))
	return err
}

// CommitRecord is one committed block bound for the chain log, as passed to
// AppendCommitBatch: the chain index it was committed at, the decision's
// validity bitmap, and the block itself.
type CommitRecord struct {
	Seq   uint64
	Valid uint64
	Block *types.Block
}

// AppendCommit logs a block committed at chain index seq to the chain log
// (buffered; see the chainW field for why that is safe), together with the
// decision's validity bitmap.
func (s *Store) AppendCommit(seq, valid uint64, b *types.Block) {
	s.AppendCommitBatch([]CommitRecord{{Seq: seq, Valid: valid, Block: b}})
}

// AppendCommitBatch is the group-commit form of AppendCommit: all records are
// framed into one buffer and written to the chain log under a single mutex
// acquisition and, under SyncAlways, a single fsync for the whole group.
// The commit pipeline uses it to amortize durability cost across the blocks
// that accumulated while the previous group was being persisted.
func (s *Store) AppendCommitBatch(recs []CommitRecord) {
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.chainW == nil {
		return
	}
	s.buf = s.buf[:0]
	for _, r := range recs {
		var start int
		s.buf, start = beginFrame(s.buf)
		s.buf = finishFrame(encodeCommit(s.buf, r.Seq, r.Valid, r.Block), start)
	}
	if _, err := s.chainW.Write(s.buf); err != nil {
		return // disk full/error: degraded to in-memory
	}
	s.opts.Metrics.WAL().Add(uint64(len(s.buf)))
	s.chainDirty = true
	if s.opts.Sync == SyncAlways {
		s.chainW.Flush()
		s.timedSync(s.chain)
		s.chainDirty = false
	}
}

// PersistAccept logs an accepted-but-uncommitted instance (the
// consensus.Persister hook). It is called before the acceptance leaves the
// node; an error means the engine must withhold the acceptance.
func (s *Store) PersistAccept(seq, view uint64, parent, digest types.Hash, txs []*types.Transaction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var start int
	s.buf, start = beginFrame(s.buf[:0])
	s.buf = finishFrame(encodeAccept(s.buf, seq, view, parent, digest, txs), start)
	return s.writeLocked(s.wal, &s.walDirty)
}

// PersistView logs the engine's view position (the consensus.Persister
// hook). It is called before the view-change vote leaves the node; an
// error means the engine must withhold the vote.
func (s *Store) PersistView(view, promised uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var start int
	s.buf, start = beginFrame(s.buf[:0])
	s.buf = finishFrame(encodeView(s.buf, view, promised), start)
	return s.writeLocked(s.wal, &s.walDirty)
}

// Flush synchronously fsyncs dirty log data (SyncGroup normally leaves this
// to the background flusher; SyncNone never syncs).
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.Sync != SyncGroup {
		return
	}
	if s.chainDirty {
		s.chainDirty = false
		s.chainW.Flush()
		s.timedSync(s.chain)
	}
	if s.walDirty {
		s.walDirty = false
		s.timedSync(s.wal)
	}
}

// CheckpointDue reports whether the chain has grown enough past the last
// checkpoint to take a new one.
func (s *Store) CheckpointDue(height uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && height >= s.ckptSeq+uint64(s.opts.CheckpointInterval)
}

// Checkpoint snapshots the shard store at chain height and rotates the
// acceptor log: a new segment starts at the checkpoint, seeded with the
// engine's still-live durable state (view position and uncommitted
// acceptances, which must survive the truncation of the old segment), and
// older segments and checkpoints are deleted. The chain log is fsynced
// first so the snapshot never gets ahead of the durable chain; the blocks
// themselves are never rewritten.
func (s *Store) Checkpoint(height uint64, balances map[types.AccountID]int64,
	applied int, failed []types.TxID, view, promised uint64,
	accepted []consensus.DurableInstance) error {
	data := encodeCheckpoint(height, balances, applied, failed)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: checkpoint on closed store")
	}
	// The snapshot is only trusted up to the durable chain (recovery checks
	// snap.height <= chain length), so the chain must hit disk first.
	if err := s.chainW.Flush(); err != nil {
		return err
	}
	if err := s.timedSync(s.chain); err != nil {
		return err
	}
	s.chainDirty = false
	if err := writeCheckpointFile(s.dir, height, data); err != nil {
		return err
	}

	// Rotate: new segment seeded with the live acceptor state.
	newPath := filepath.Join(s.dir, walName(height))
	f, err := os.OpenFile(newPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	buf, fstart := beginFrame(nil)
	buf = finishFrame(encodeView(buf, view, promised), fstart)
	for _, inst := range accepted {
		if inst.Seq > height {
			buf, fstart = beginFrame(buf)
			buf = finishFrame(encodeAccept(buf, inst.Seq, inst.View, inst.Parent, inst.Digest, inst.Txs), fstart)
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(newPath)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(newPath)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}

	s.wal.Close()
	s.wal = f
	s.walBase = height
	s.walDirty = false
	s.opts.Metrics.Ckpt().Inc()

	// Old checkpoints and acceptor segments are garbage now: the fresh
	// fsynced segment holds every live obligation, so every other segment
	// (the rotated-out one and any crash leftovers Open kept) can go.
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if h, ok := parseSeqName(e.Name(), ckptPrefix, ckptSuffix); ok && h < height {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
			if b, ok := parseSeqName(e.Name(), walPrefix, walSuffix); ok && b != height {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	s.ckptSeq = height
	return nil
}

// Close flushes and closes the log. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop := s.flushStop
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.flushDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.chain != nil {
		s.chainW.Flush()
		if s.chainDirty && s.opts.Sync != SyncNone {
			s.chain.Sync()
		}
		err = s.chain.Close()
		s.chain, s.chainW = nil, nil
	}
	if s.wal != nil {
		if s.walDirty && s.opts.Sync != SyncNone {
			s.wal.Sync()
		}
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
		s.wal = nil
	}
	return err
}

// Interface check: Store is the engines' durability hook.
var _ consensus.Persister = (*Store)(nil)
