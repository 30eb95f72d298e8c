// Package ledger implements the SharPer blockchain ledger of §2.3: a
// directed acyclic graph of blocks in which each block carries one
// predecessor hash per involved cluster. The paper uses single-transaction
// blocks; here a block batches one or more transactions that share the same
// involved-cluster set, so one DAG vertex (and one consensus instance)
// amortizes over the whole batch. No node stores the full DAG; each cluster
// maintains a View containing its intra-shard blocks and the cross-shard
// blocks it participates in, chained in a total order. The logical DAG is
// the union of the views (Fig. 2), and DAG provides that union plus
// consistency verification for tests and audits.
package ledger

import (
	"fmt"
	"sync"

	"sharper/internal/types"
)

// GenesisBlock returns λ, the unique initialization block every view starts
// from. All clusters share the same genesis so cross-shard parent slots are
// well defined from the first block.
func GenesisBlock() *types.Block {
	return &types.Block{
		Txs: []*types.Transaction{{
			ID:       types.TxID{Client: 0, Seq: 0},
			Involved: types.ClusterSet{},
		}},
		Parents: nil,
	}
}

// GenesisHash is the hash of λ.
func GenesisHash() types.Hash { return GenesisBlock().Hash() }

// View is one cluster's portion of the ledger: a totally ordered,
// hash-chained sequence of the blocks that access the cluster's shard.
// It is safe for concurrent use.
//
// The view holds bytes, not objects. Each appended block is stored as its
// canonical encoding (exactly Block.Encode) in append-only slabs, and its
// hash is the SHA-256 of those same bytes, which is what Block.Hash computes.
// Nothing the view keeps holds a pointer except the slab list itself, so the
// collector never walks the chain's history. Blocks are decoded only on the
// read paths that need objects: Block, Blocks, CrossShardBlocks and Verify
// (chain-sync serving and the DAG audit go through them). The commit path
// never reads a block back; the question "did this transaction commit?" is
// the node's committed-transaction window, not the chain's.
type View struct {
	cluster types.ClusterID

	mu     sync.RWMutex
	slabs  [][]byte     // append-only, each at full length; never rewritten or moved
	fill   int          // bytes of the last slab in use
	locs   []blockLoc   // locs[i] locates block i's encoding; index 0 is genesis
	hashes []types.Hash // hashes[i] == SHA-256 of block i's stored encoding
}

// blockLoc is where one block's encoding lives in the slabs.
type blockLoc struct {
	slab, off, n uint32
	cross        bool // the block spans clusters (CrossShardBlocks decodes only these)
}

// Slab sizing: a view's first slab is small, because every replica of a test
// deployment builds one; each next slab doubles up to maxSlab. A block larger
// than that gets a slab of its own.
const (
	minSlab = 512
	maxSlab = 64 << 10
)

// NewView creates a view for cluster, containing only the genesis block.
func NewView(cluster types.ClusterID) *View {
	v := &View{cluster: cluster, slabs: [][]byte{make([]byte, minSlab)}}
	v.store(GenesisBlock())
	return v
}

// store appends b's canonical encoding to the slabs and records its location
// and hash. The encoding is written straight into the free tail of the last
// slab; when it does not fit, Encode's own growth has already produced it
// elsewhere, and it is copied into a fresh slab. Only bytes past every
// published location are written, so readers holding a snapshot never race
// an append. Caller holds mu (or owns the view).
func (v *View) store(b *types.Block) {
	last := len(v.slabs) - 1
	cur := v.slabs[last]
	off := v.fill
	enc := b.Encode(cur[off:off])
	if len(enc) > len(cur)-off {
		next := make([]byte, max(min(2*len(cur), maxSlab), len(enc)))
		copy(next, enc)
		v.slabs = append(v.slabs, next)
		last, off = last+1, 0
		enc = next[:len(enc)]
	}
	v.fill = off + len(enc)
	v.locs = append(v.locs, blockLoc{slab: uint32(last), off: uint32(off), n: uint32(len(enc)), cross: b.IsCrossShard()})
	v.hashes = append(v.hashes, types.HashBytes(enc))
}

// encoding returns the stored bytes at l, read through a snapshot.
func encoding(slabs [][]byte, l blockLoc) []byte {
	return slabs[l.slab][l.off : l.off+l.n : l.off+l.n]
}

// snapshot returns the slab list, locations and hashes of the chain as it is
// now. Appends only ever write past what a snapshot covers, so the caller
// decodes from it without holding the lock.
func (v *View) snapshot() ([][]byte, []blockLoc, []types.Hash) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.slabs, v.locs, v.hashes
}

// decodeStored decodes one stored encoding. The view wrote those bytes with
// Block.Encode, so a failure means memory was corrupted under it.
func decodeStored(enc []byte, i int) *types.Block {
	b, used, err := types.DecodeBlock(enc)
	if err != nil || used != len(enc) {
		panic(fmt.Sprintf("ledger: stored block %d does not decode: %v", i, err))
	}
	return b
}

// Cluster returns the cluster this view belongs to.
func (v *View) Cluster() types.ClusterID { return v.cluster }

// Head returns the hash of the most recently appended block. This is the
// h_i value the cluster contributes to proposals (§3.2).
func (v *View) Head() types.Hash {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.hashes[len(v.hashes)-1]
}

// HeadInfo returns the committed head's sequence (Len-1) and hash as one
// consistent pair under a single lock acquisition. The pair defines the next
// chain slot — seq+1, extending head — which is what a cross-shard vote
// promises away; reading Len and Head separately could interleave with an
// append and misreport the reservation.
func (v *View) HeadInfo() (uint64, types.Hash) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return uint64(len(v.locs) - 1), v.hashes[len(v.hashes)-1]
}

// Len returns the number of blocks including genesis.
func (v *View) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.locs)
}

// Block returns a decoded copy of the i-th block (0 = genesis).
func (v *View) Block(i int) *types.Block {
	slabs, locs, _ := v.snapshot()
	return decodeStored(encoding(slabs, locs[i]), i)
}

// Blocks returns decoded copies of the whole chain, genesis first. Each
// copy's Hash equals the hash the view chained it with.
func (v *View) Blocks() []*types.Block {
	slabs, locs, _ := v.snapshot()
	out := make([]*types.Block, len(locs))
	for i, l := range locs {
		out[i] = decodeStored(encoding(slabs, l), i)
	}
	return out
}

// parentSlot returns the index of this view's cluster in the block's
// involved set, which is also the index of its parent-hash slot.
func (v *View) parentSlot(b *types.Block) (int, error) {
	inv := b.Involved()
	if len(inv) == 0 {
		return 0, fmt.Errorf("ledger: block %s has empty involved set", blockLabel(b))
	}
	for i, c := range inv {
		if c == v.cluster {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ledger: block %s does not involve cluster %s", blockLabel(b), v.cluster)
}

// blockLabel names a block by its first transaction for error messages.
func blockLabel(b *types.Block) string {
	if len(b.Txs) == 0 {
		return "<empty>"
	}
	if len(b.Txs) == 1 {
		return b.Txs[0].ID.String()
	}
	return fmt.Sprintf("%s(+%d)", b.Txs[0].ID, len(b.Txs)-1)
}

// validateBatch checks the structural invariants of a multi-transaction
// block: a non-empty batch, every transaction sharing one involved-cluster
// set (so the parent-slot layout is well defined), and no transaction
// appearing twice inside the same block.
func validateBatch(b *types.Block) error {
	if len(b.Txs) == 0 {
		return fmt.Errorf("ledger: empty block")
	}
	inv := b.Txs[0].Involved
	seen := make(map[types.TxID]struct{}, len(b.Txs))
	for _, tx := range b.Txs {
		if !tx.Involved.Equal(inv) {
			return fmt.Errorf("ledger: block %s mixes involved sets %s and %s",
				blockLabel(b), inv, tx.Involved)
		}
		if _, dup := seen[tx.ID]; dup {
			return fmt.Errorf("ledger: block %s contains tx %s twice", blockLabel(b), tx.ID)
		}
		seen[tx.ID] = struct{}{}
	}
	return nil
}

// Append validates that the block's parent slot for this cluster equals the
// current head and appends it. Batches must be well formed (one shared
// involved set, no intra-block duplicates). The chain records exactly what
// consensus decided; a transaction re-ordered by a client retransmission may
// appear in two different blocks, and the execution layer deduplicates (the
// second occurrence is a no-op there). Appending out of order is an error.
func (v *View) Append(b *types.Block) error {
	if err := validateBatch(b); err != nil {
		return err
	}
	slot, err := v.parentSlot(b)
	if err != nil {
		return err
	}
	if slot >= len(b.Parents) {
		return fmt.Errorf("ledger: block %s missing parent slot %d", blockLabel(b), slot)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	head := v.hashes[len(v.hashes)-1]
	if b.Parents[slot] != head {
		return fmt.Errorf("ledger: block %s parent %s does not extend head %s of %s",
			blockLabel(b), b.Parents[slot], head, v.cluster)
	}
	v.store(b)
	return nil
}

// Verify walks the chain and checks every stored encoding against the hash
// it was chained with, and every hash link. It returns the first violation
// found, or nil if the view is internally consistent.
func (v *View) Verify() error {
	slabs, locs, hashes := v.snapshot()
	for i, l := range locs {
		enc := encoding(slabs, l)
		if types.HashBytes(enc) != hashes[i] {
			return fmt.Errorf("ledger: block %d stored hash mismatch", i)
		}
		if i == 0 {
			continue
		}
		b, used, err := types.DecodeBlock(enc)
		if err != nil || used != len(enc) {
			return fmt.Errorf("ledger: block %d does not decode: %v", i, err)
		}
		if err := validateBatch(b); err != nil {
			return fmt.Errorf("ledger: block %d: %w", i, err)
		}
		slot, err := v.parentSlot(b)
		if err != nil {
			return fmt.Errorf("ledger: block %d: %w", i, err)
		}
		if slot >= len(b.Parents) || b.Parents[slot] != hashes[i-1] {
			return fmt.Errorf("ledger: block %d (%s) breaks the hash chain of %s", i, blockLabel(b), v.cluster)
		}
	}
	return nil
}

// CrossShardBlocks returns decoded copies of the cross-shard blocks in commit
// order; intra-shard blocks are skipped without being decoded.
func (v *View) CrossShardBlocks() []*types.Block {
	slabs, locs, _ := v.snapshot()
	var out []*types.Block
	for i, l := range locs {
		if l.cross {
			out = append(out, decodeStored(encoding(slabs, l), i))
		}
	}
	return out
}
