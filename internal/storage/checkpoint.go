package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sharper/internal/types"
)

// Checkpoint files. A checkpoint is a point-in-time snapshot of one
// replica's shard store (balances + applied counter) at a chain height the
// chain log already holds durably — the blocks themselves stay in the
// append-only chain log, so a checkpoint is O(accounts), not O(chain), and
// recovery only re-executes the blocks above it. The whole file is one CRC
// frame, written to a temporary name and atomically renamed into place, so
// a crash mid-write leaves either the previous checkpoint or a complete new
// one — never a half checkpoint that recovery could mistake for state.
//
// Payload layout (inside the frame):
//
//	[8B height][4B naccounts][(8B account, 8B balance)…][8B applied]
//	[4B nfailed][(4B client, 8B seq)…]
//
// The failed list carries the transactions at or below the checkpoint
// height that were ordered but rejected (overdrafts, cross-shard validity
// vetoes) and still held by the replica's committed-transaction window,
// which holds at least every one inside the admission TTL. Recovery rebuilds
// the window from it for the transactions still inside the TTL at restart,
// so a client retransmitting a failed transaction is re-answered
// Committed=false instead of a guess; an older one fails admission as
// Expired.

const (
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	chainFile  = "chain.log"
)

func ckptName(height uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, height, ckptSuffix) }
func walName(base uint64) string    { return fmt.Sprintf("%s%016x%s", walPrefix, base, walSuffix) }

// parseSeqName extracts the hex sequence from names like prefix<16x>suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// snapshot is a decoded checkpoint.
type snapshot struct {
	height   uint64
	balances map[types.AccountID]int64
	applied  int
	failed   []types.TxID
}

// encodeCheckpoint builds the framed checkpoint file contents.
func encodeCheckpoint(height uint64, balances map[types.AccountID]int64, applied int, failed []types.TxID) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, height)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(balances)))
	// Deterministic order keeps checkpoint bytes reproducible for a given
	// state, which makes corruption diagnosable by comparison.
	accts := make([]types.AccountID, 0, len(balances))
	for a := range balances {
		accts = append(accts, a)
	}
	sort.Slice(accts, func(i, j int) bool { return accts[i] < accts[j] })
	for _, a := range accts {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(a))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(balances[a]))
	}
	payload = binary.LittleEndian.AppendUint64(payload, uint64(applied))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(failed)))
	for _, id := range failed {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(id.Client))
		payload = binary.LittleEndian.AppendUint64(payload, id.Seq)
	}
	return appendFrame(nil, payload)
}

// decodeCheckpoint parses a checkpoint file's contents.
func decodeCheckpoint(data []byte) (*snapshot, error) {
	payload, used, err := readFrame(data)
	if err != nil {
		return nil, err
	}
	if used != len(data) {
		return nil, fmt.Errorf("storage: %d trailing bytes after checkpoint frame", len(data)-used)
	}
	if len(payload) < 12 {
		return nil, fmt.Errorf("storage: short checkpoint payload")
	}
	s := &snapshot{height: binary.LittleEndian.Uint64(payload)}
	nb := int(binary.LittleEndian.Uint32(payload[8:]))
	off := 12
	if len(payload) < off+nb*16+8 {
		return nil, fmt.Errorf("storage: short checkpoint balance section")
	}
	s.balances = make(map[types.AccountID]int64, nb)
	for i := 0; i < nb; i++ {
		a := types.AccountID(binary.LittleEndian.Uint64(payload[off:]))
		s.balances[a] = int64(binary.LittleEndian.Uint64(payload[off+8:]))
		off += 16
	}
	s.applied = int(binary.LittleEndian.Uint64(payload[off:]))
	off += 8
	if len(payload) < off+4 {
		return nil, fmt.Errorf("storage: short checkpoint failed-tx count")
	}
	nf := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	if len(payload) < off+nf*12 {
		return nil, fmt.Errorf("storage: short checkpoint failed-tx section")
	}
	for i := 0; i < nf; i++ {
		s.failed = append(s.failed, types.TxID{
			Client: types.NodeID(binary.LittleEndian.Uint32(payload[off:])),
			Seq:    binary.LittleEndian.Uint64(payload[off+4:]),
		})
		off += 12
	}
	return s, nil
}

// loadBestCheckpoint finds the newest checkpoint in dir that decodes and
// checksums cleanly, falling back to older ones (a crash can race a
// checkpoint write; the rename makes a damaged newest file unlikely but
// recovery does not bet safety on it). Returns nil when none is usable.
func loadBestCheckpoint(dir string) *snapshot {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var heights []uint64
	for _, e := range entries {
		if h, ok := parseSeqName(e.Name(), ckptPrefix, ckptSuffix); ok {
			heights = append(heights, h)
		}
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] > heights[j] })
	for _, h := range heights {
		data, err := os.ReadFile(filepath.Join(dir, ckptName(h)))
		if err != nil {
			continue
		}
		s, err := decodeCheckpoint(data)
		if err != nil || s.height != h {
			continue
		}
		return s
	}
	return nil
}

// writeCheckpointFile writes the checkpoint durably: temp file, fsync,
// atomic rename, directory fsync.
func writeCheckpointFile(dir string, height uint64, data []byte) error {
	tmp := filepath.Join(dir, ckptName(height)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckptName(height))); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
