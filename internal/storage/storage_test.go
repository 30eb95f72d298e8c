package storage

import (
	"os"
	"path/filepath"
	"testing"

	"sharper/internal/consensus"
	"sharper/internal/types"
)

// testBlock builds a deterministic single-tx block chained to parent.
func testBlock(seq uint64, parent types.Hash) *types.Block {
	tx := &types.Transaction{
		ID:       types.TxID{Client: 1, Seq: seq},
		Client:   1,
		Ops:      []types.Op{{From: types.AccountID(seq), To: types.AccountID(seq + 1), Amount: 1}},
		Involved: types.NewClusterSet(0),
	}
	return &types.Block{Txs: []*types.Transaction{tx}, Parents: []types.Hash{parent}}
}

// chainOf builds n blocks hash-chained from a genesis-like root.
func chainOf(n int) []*types.Block {
	parent := types.HashBytes([]byte("genesis"))
	out := make([]*types.Block, 0, n)
	for i := 1; i <= n; i++ {
		b := testBlock(uint64(i), parent)
		parent = b.Hash()
		out = append(out, b)
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := chainOf(3)
	for i, b := range blocks {
		st.AppendCommit(uint64(i+1), ^uint64(0), b)
	}
	st.PersistAccept(4, 2, blocks[2].Hash(), types.BatchDigest(blocks[2].Txs), blocks[2].Txs)
	st.PersistView(2, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Blocks) != 3 {
		t.Fatalf("recovered %d blocks, want 3", len(rec.Blocks))
	}
	for i, b := range rec.Blocks {
		if b.Hash() != blocks[i].Hash() {
			t.Fatalf("block %d hash mismatch after recovery", i)
		}
	}
	if len(rec.Valid) != 3 || rec.Valid[0] != ^uint64(0) {
		t.Fatalf("validity bitmaps lost: %v", rec.Valid)
	}
	if rec.View != 2 || rec.Promised != 3 {
		t.Fatalf("recovered view=%d promised=%d, want 2/3", rec.View, rec.Promised)
	}
	if len(rec.Accepted) != 1 || rec.Accepted[0].Seq != 4 || len(rec.Accepted[0].Txs) != 1 {
		t.Fatalf("recovered accepted = %+v, want one instance at seq 4", rec.Accepted)
	}
	if rec.HaveSnapshot {
		t.Fatal("no checkpoint was written, but recovery claims a snapshot")
	}
}

// TestWALTornTailTruncated cuts the chain log mid-record: recovery must
// keep the valid prefix, truncate the garbage, and leave the log appendable.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := chainOf(2)
	st.AppendCommit(1, ^uint64(0), blocks[0])
	st.AppendCommit(2, ^uint64(0), blocks[1])
	st.Close()

	path := filepath.Join(dir, chainFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append half of a duplicated record: a torn write.
	torn := append(append([]byte{}, data...), data[:len(data)/3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := st2.Recovered()
	if len(rec.Blocks) != 2 {
		t.Fatalf("recovered %d blocks from torn log, want 2", len(rec.Blocks))
	}
	// The tail must have been truncated so new appends extend a valid log.
	st2.AppendCommit(3, ^uint64(0), testBlock(3, blocks[1].Hash()))
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := len(st3.Recovered().Blocks); got != 3 {
		t.Fatalf("recovered %d blocks after post-truncation append, want 3", got)
	}
}

// TestWALCorruptMiddleStopsReplay flips a byte inside an early record: the
// CRC must reject it and recovery must stop at the last record before it
// (suffix records chained past corruption cannot be trusted).
func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{})
	blocks := chainOf(3)
	for i, b := range blocks {
		st.AppendCommit(uint64(i+1), ^uint64(0), b)
	}
	st.Close()

	path := filepath.Join(dir, chainFile)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Recovered().Blocks); got >= 3 {
		t.Fatalf("recovered %d blocks through corruption, want a strict prefix", got)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CheckpointInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	blocks := chainOf(6)
	for i, b := range blocks {
		st.AppendCommit(uint64(i+1), ^uint64(0), b)
	}
	balances := map[types.AccountID]int64{1: 100, 2: 200}
	live := []consensus.DurableInstance{{
		Seq: 7, View: 1, Parent: blocks[5].Hash(),
		Digest: types.BatchDigest(blocks[5].Txs), Txs: blocks[5].Txs,
	}}
	if !st.CheckpointDue(6) {
		t.Fatal("checkpoint not due at height 6 with interval 4")
	}
	failed := []types.TxID{{Client: 1, Seq: 3}}
	if err := st.Checkpoint(6, balances, 6, failed, 1, 2, live); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic lands in the new segment.
	b7 := testBlock(8, blocks[5].Hash())
	st.AppendCommit(7, ^uint64(0), b7)
	st.Close()

	// Only one segment and one checkpoint remain.
	entries, _ := os.ReadDir(dir)
	var segs, ckpts int
	for _, e := range entries {
		if _, ok := parseSeqName(e.Name(), walPrefix, walSuffix); ok {
			segs++
		}
		if _, ok := parseSeqName(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts++
		}
	}
	if segs != 1 || ckpts != 1 {
		t.Fatalf("after checkpoint: %d segments, %d checkpoints; want 1 and 1", segs, ckpts)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if !rec.HaveSnapshot || rec.SnapshotSeq != 6 {
		t.Fatalf("snapshot not recovered: have=%v seq=%d", rec.HaveSnapshot, rec.SnapshotSeq)
	}
	if rec.Balances[1] != 100 || rec.Balances[2] != 200 || rec.Applied != 6 {
		t.Fatalf("snapshot contents wrong: %+v applied=%d", rec.Balances, rec.Applied)
	}
	if !rec.FailedTxs[types.TxID{Client: 1, Seq: 3}] || len(rec.FailedTxs) != 1 {
		t.Fatalf("failed-tx verdicts lost: %+v", rec.FailedTxs)
	}
	if len(rec.Blocks) != 7 || rec.Blocks[6].Hash() != b7.Hash() {
		t.Fatalf("recovered %d blocks, want 7 ending with the post-checkpoint block", len(rec.Blocks))
	}
	if rec.View != 1 || rec.Promised != 2 {
		t.Fatalf("seeded view state lost: view=%d promised=%d", rec.View, rec.Promised)
	}
	// The seq-7 acceptance was superseded by the commit of chain index 7
	// (the replay drops acceptances at or below the committed head); an
	// acceptance above the head must have survived the rotation, which
	// TestCheckpointKeepsLiveAcceptance pins down.
	if len(rec.Accepted) != 0 {
		t.Fatalf("superseded acceptance survived: %+v", rec.Accepted)
	}
}

// TestCheckpointKeepsLiveAcceptance checks the rotation re-seeds
// still-uncommitted acceptances into the fresh segment: truncating the old
// segment must not let a restarted acceptor renege.
func TestCheckpointKeepsLiveAcceptance(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{CheckpointInterval: 2})
	blocks := chainOf(2)
	for i, b := range blocks {
		st.AppendCommit(uint64(i+1), ^uint64(0), b)
	}
	pending := testBlock(9, blocks[1].Hash())
	live := []consensus.DurableInstance{{
		Seq: 3, View: 1, Parent: blocks[1].Hash(),
		Digest: types.BatchDigest(pending.Txs), Txs: pending.Txs,
	}}
	if err := st.Checkpoint(2, map[types.AccountID]int64{1: 5}, 2, nil, 1, 1, live); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Accepted) != 1 || rec.Accepted[0].Seq != 3 ||
		rec.Accepted[0].Digest != types.BatchDigest(pending.Txs) {
		t.Fatalf("live acceptance lost across rotation: %+v", rec.Accepted)
	}
}

// TestCorruptNewestCheckpointFallsBack damages the newest checkpoint file;
// recovery must fall back to the older one rather than fail or trust it.
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{CheckpointInterval: 2})
	blocks := chainOf(4)
	for i, b := range blocks {
		st.AppendCommit(uint64(i+1), ^uint64(0), b)
	}
	if err := st.Checkpoint(2, map[types.AccountID]int64{1: 10}, 2, nil, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Forge a newer checkpoint with a bad checksum.
	bad := encodeCheckpoint(4, map[types.AccountID]int64{1: 999}, 4, nil)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, ckptName(4)), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if !rec.HaveSnapshot || rec.SnapshotSeq != 2 || rec.Balances[1] != 10 {
		t.Fatalf("did not fall back to the valid checkpoint: %+v", rec)
	}
}

// TestSnapshotAheadOfChainDistrusted forges a checkpoint claiming a height
// the chain log does not reach: recovery must ignore it (trusting it would
// let chain sync double-apply the missing blocks' transactions).
func TestSnapshotAheadOfChainDistrusted(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{})
	st.AppendCommit(1, ^uint64(0), chainOf(1)[0])
	st.Close()

	forged := encodeCheckpoint(5, map[types.AccountID]int64{1: 42}, 5, nil)
	if err := os.WriteFile(filepath.Join(dir, ckptName(5)), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Recovered().HaveSnapshot {
		t.Fatal("recovery trusted a snapshot ahead of the durable chain")
	}
}

// TestAcceptSupersededByHigherView checks last-wins replay of re-accepted
// slots: only the highest-view binding for a slot survives recovery.
func TestAcceptSupersededByHigherView(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{})
	b := chainOf(1)[0]
	st.PersistAccept(1, 0, types.ZeroHash, types.BatchDigest(b.Txs), b.Txs)
	b2 := testBlock(99, types.ZeroHash)
	st.PersistAccept(1, 2, types.ZeroHash, types.BatchDigest(b2.Txs), b2.Txs)
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Accepted) != 1 {
		t.Fatalf("recovered %d acceptances for one slot, want 1", len(rec.Accepted))
	}
	if rec.Accepted[0].View != 2 || rec.Accepted[0].Txs[0].ID.Seq != 99 {
		t.Fatalf("recovery kept the stale acceptance: %+v", rec.Accepted[0])
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncNone, SyncGroup, SyncAlways} {
		dir := t.TempDir()
		st, err := Open(dir, Options{Sync: p})
		if err != nil {
			t.Fatal(err)
		}
		st.AppendCommit(1, ^uint64(0), chainOf(1)[0])
		st.Flush()
		st.Close()
		st2, err := Open(dir, Options{Sync: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(st2.Recovered().Blocks) != 1 {
			t.Fatalf("%v: lost the committed block", p)
		}
		st2.Close()
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncGroup, "1": SyncGroup, "group": SyncGroup,
		"none": SyncNone, "always": SyncAlways,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestAppendCommitBatchRoundTrip writes one group-commit batch (several
// commit records framed and fsynced as a single append) and recovers it:
// batched framing must be byte-compatible with the one-record path.
func TestAppendCommitBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	blocks := chainOf(4)
	recs := make([]CommitRecord, len(blocks))
	for i, b := range blocks {
		recs[i] = CommitRecord{Seq: uint64(i + 1), Valid: ^uint64(0), Block: b}
	}
	st.AppendCommitBatch(recs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Blocks) != 4 {
		t.Fatalf("recovered %d blocks from a batched append, want 4", len(rec.Blocks))
	}
	for i, b := range rec.Blocks {
		if b.Hash() != blocks[i].Hash() {
			t.Fatalf("block %d hash mismatch after batched append", i)
		}
	}
}

// TestAppendCommitBatchTornMidGroup models kill -9 between group-commit
// fsync boundaries: a batch of commit records is appended as one group,
// but the crash leaves only part of it on disk (the unsynced tail is
// torn). Recovery must keep exactly the record-aligned prefix — never a
// half record — and leave the log appendable so the replica can re-commit
// the lost suffix fetched from its peers.
func TestAppendCommitBatchTornMidGroup(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := chainOf(4)
	recs := make([]CommitRecord, len(blocks))
	for i, b := range blocks {
		recs[i] = CommitRecord{Seq: uint64(i + 1), Valid: ^uint64(0), Block: b}
	}
	st.AppendCommitBatch(recs)
	st.Close()

	path := filepath.Join(dir, chainFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the group: 5/8 of four same-shaped records lands mid-way
	// through the third, so a strict prefix of the group survives.
	if err := os.WriteFile(path, data[:len(data)*5/8], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := st2.Recovered()
	kept := len(rec.Blocks)
	if kept == 0 || kept >= 4 {
		t.Fatalf("recovered %d blocks from torn group, want a strict non-empty prefix of 4", kept)
	}
	for i := 0; i < kept; i++ {
		if rec.Blocks[i].Hash() != blocks[i].Hash() {
			t.Fatalf("block %d corrupted by torn-group truncation", i)
		}
	}
	// Re-append the lost suffix (as chain sync would) and confirm the log
	// reads back whole.
	tail := make([]CommitRecord, 0, 4-kept)
	for i := kept; i < 4; i++ {
		tail = append(tail, CommitRecord{Seq: uint64(i + 1), Valid: ^uint64(0), Block: blocks[i]})
	}
	st2.AppendCommitBatch(tail)
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := len(st3.Recovered().Blocks); got != 4 {
		t.Fatalf("after re-append recovered %d blocks, want 4", got)
	}
}
