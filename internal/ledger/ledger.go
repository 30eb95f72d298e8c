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
type View struct {
	cluster types.ClusterID

	mu     sync.RWMutex
	blocks []*types.Block          // index 0 is genesis
	hashes []types.Hash            // hashes[i] == blocks[i].Hash()
	byTx   map[types.TxID]struct{} // committed transaction IDs (dedup)
}

// NewView creates a view for cluster, containing only the genesis block.
func NewView(cluster types.ClusterID) *View {
	g := GenesisBlock()
	return &View{
		cluster: cluster,
		blocks:  []*types.Block{g},
		hashes:  []types.Hash{g.Hash()},
		byTx:    map[types.TxID]struct{}{},
	}
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
	return uint64(len(v.blocks) - 1), v.hashes[len(v.hashes)-1]
}

// ContainsAll reports whether every transaction of the batch is already
// committed in the view — the dedup test for re-delivered cross-shard
// decisions (a partially contained batch must still append; see the
// runtime's apply path).
func (v *View) ContainsAll(txs []*types.Transaction) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, tx := range txs {
		if _, ok := v.byTx[tx.ID]; !ok {
			return false
		}
	}
	return true
}

// Len returns the number of blocks including genesis.
func (v *View) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.blocks)
}

// Contains reports whether the transaction is already committed in the view.
func (v *View) Contains(id types.TxID) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.byTx[id]
	return ok
}

// Block returns the i-th block (0 = genesis).
func (v *View) Block(i int) *types.Block {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.blocks[i]
}

// Blocks returns a snapshot of the chain.
func (v *View) Blocks() []*types.Block {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*types.Block, len(v.blocks))
	copy(out, v.blocks)
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
	v.blocks = append(v.blocks, b)
	v.hashes = append(v.hashes, b.Hash())
	for _, tx := range b.Txs {
		v.byTx[tx.ID] = struct{}{}
	}
	return nil
}

// Verify walks the chain and checks every hash link. It returns the first
// violation found, or nil if the view is internally consistent.
func (v *View) Verify() error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i := 1; i < len(v.blocks); i++ {
		b := v.blocks[i]
		if err := validateBatch(b); err != nil {
			return fmt.Errorf("ledger: block %d: %w", i, err)
		}
		slot := 0
		found := false
		for j, c := range b.Involved() {
			if c == v.cluster {
				slot, found = j, true
				break
			}
		}
		if !found {
			return fmt.Errorf("ledger: block %d (%s) does not involve %s", i, blockLabel(b), v.cluster)
		}
		if slot >= len(b.Parents) || b.Parents[slot] != v.hashes[i-1] {
			return fmt.Errorf("ledger: block %d (%s) breaks the hash chain of %s", i, blockLabel(b), v.cluster)
		}
		if v.hashes[i] != b.Hash() {
			return fmt.Errorf("ledger: block %d (%s) stored hash mismatch", i, blockLabel(b))
		}
	}
	return nil
}

// CrossShardBlocks returns the cross-shard blocks in commit order.
func (v *View) CrossShardBlocks() []*types.Block {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var out []*types.Block
	for _, b := range v.blocks[1:] {
		if b.IsCrossShard() {
			out = append(out, b)
		}
	}
	return out
}
