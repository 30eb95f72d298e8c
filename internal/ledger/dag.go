package ledger

import (
	"fmt"
	"sort"

	"sharper/internal/types"
)

// DAG is the union of per-cluster views: the full blockchain ledger of
// Fig. 2(a). SharPer never materializes it at any node (§2.3); this type
// exists for verification, audits, and visualization in tests, examples,
// and tools.
type DAG struct {
	views map[types.ClusterID]*View
}

// NewDAG builds the union over the given views.
func NewDAG(views ...*View) *DAG {
	m := make(map[types.ClusterID]*View, len(views))
	for _, v := range views {
		m[v.Cluster()] = v
	}
	return &DAG{views: m}
}

// Clusters returns the participating clusters in ascending order.
func (d *DAG) Clusters() []types.ClusterID {
	out := make([]types.ClusterID, 0, len(d.views))
	for c := range d.views {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verify checks global consistency of the union:
//
//  1. every view's internal hash chain holds (View.Verify), and
//  2. every cross-shard block committed by one involved cluster is
//     committed by all involved clusters with identical content — this is
//     the §3.2 safety condition that conflicting cross-shard transactions
//     are ordered identically on overlapping clusters.
//
// Views may legitimately be mid-commit on their last few blocks when
// sampled concurrently with consensus, so Verify is intended for quiesced
// systems (tests stop traffic first).
func (d *DAG) Verify() error {
	for _, v := range d.views {
		if err := v.Verify(); err != nil {
			return err
		}
	}
	// Cross-shard agreement: same tx ⇒ same block hash everywhere it appears
	// (a batched cross-shard block commits identically on every involved
	// cluster, so every transaction of the batch maps to the same hash), and
	// every involved cluster we hold a view for has the block. A
	// transaction's blocks all carry its own involved set, so a cross-shard
	// transaction only ever sits in a cross-shard block: indexing those is
	// indexing everything the check can find.
	chains := d.crossChains()
	seen := make(map[types.TxID]types.Hash)
	for _, ch := range chains {
		for _, b := range ch.blocks {
			h := b.Hash()
			for _, tx := range b.Txs {
				if prev, ok := seen[tx.ID]; ok && prev != h {
					return fmt.Errorf("ledger: cross-shard tx %s committed with diverging content", tx.ID)
				}
				seen[tx.ID] = h
				for _, c := range tx.Involved {
					other, ok := chains[c]
					if !ok {
						continue // partial union: tolerated
					}
					if _, ok := other.pos[tx.ID]; !ok {
						return fmt.Errorf("ledger: cross-shard tx %s missing from involved cluster %s", tx.ID, c)
					}
				}
			}
		}
	}
	return nil
}

// crossChain is one view's cross-shard blocks in commit order, decoded once
// for an audit, with each transaction's position: the ordinal of the last
// cross-shard block holding it. Ordinals order blocks exactly as chain
// indices do.
type crossChain struct {
	blocks []*types.Block
	pos    map[types.TxID]int
}

// crossChains indexes every view's cross-shard transactions. The audit builds
// this itself: the view keeps no per-transaction index.
func (d *DAG) crossChains() map[types.ClusterID]*crossChain {
	out := make(map[types.ClusterID]*crossChain, len(d.views))
	for c, v := range d.views {
		ch := &crossChain{blocks: v.CrossShardBlocks(), pos: make(map[types.TxID]int)}
		for k, b := range ch.blocks {
			for _, tx := range b.Txs {
				ch.pos[tx.ID] = k
			}
		}
		out[c] = ch
	}
	return out
}

// Audit is the whole-ledger audit a deployment runs once traffic stops:
// Verify, then VerifyPairwiseOrder.
func (d *DAG) Audit() error {
	if err := d.Verify(); err != nil {
		return err
	}
	return d.VerifyPairwiseOrder()
}

// VerifyPairwiseOrder checks that every pair of cross-shard transactions
// sharing two or more common clusters commits in the same relative order in
// each shared view. Together with per-view chains this implies the DAG is
// acyclic.
//
// It runs in one pass per cluster pair (a, b): walking a's cross-shard
// blocks in commit order, the positions in b of the transactions both hold
// must never fall below the highest position in b of a transaction a placed
// strictly earlier. Transactions of one block share a position, so
// same-block pairs are ordered by neither view; a pair one view batches
// together and the other splits is a content divergence, which Verify
// reports.
func (d *DAG) VerifyPairwiseOrder() error {
	chains := d.crossChains()
	clusters := d.Clusters()
	for i, a := range clusters {
		for _, b := range clusters[i+1:] {
			if err := pairOrder(chains[a], chains[b], b); err != nil {
				return err
			}
		}
	}
	return nil
}

// pairOrder is VerifyPairwiseOrder for one cluster pair: ca's chain walked
// against cb's positions, cb being cluster b's chain.
func pairOrder(ca, cb *crossChain, b types.ClusterID) error {
	floor, floorTx := -1, types.TxID{} // highest b-position of a strictly earlier block
	for k, blk := range ca.blocks {
		if !blk.Involved().Contains(b) {
			continue
		}
		top, topTx := floor, floorTx
		for _, tx := range blk.Txs {
			if ca.pos[tx.ID] != k {
				continue // a later block of a holds it again; its position is there
			}
			j, ok := cb.pos[tx.ID]
			if !ok {
				continue
			}
			if j < floor {
				return fmt.Errorf("ledger: txs %s and %s commit in conflicting orders on overlapping clusters",
					floorTx, tx.ID)
			}
			if j > top {
				top, topTx = j, tx.ID
			}
		}
		floor, floorTx = top, topTx
	}
	return nil
}

// RenderASCII produces a compact textual rendering of the DAG in commit
// order per cluster, used by examples to show the Fig. 2 structure.
func (d *DAG) RenderASCII() string {
	out := ""
	for _, c := range d.Clusters() {
		v := d.views[c]
		out += fmt.Sprintf("%s:", c)
		for i, b := range v.Blocks() {
			if i == 0 {
				out += " λ"
				continue
			}
			if b.IsCrossShard() {
				out += fmt.Sprintf(" →[X %s %s]", blockLabel(b), b.Involved())
			} else {
				out += fmt.Sprintf(" →[%s]", blockLabel(b))
			}
		}
		out += "\n"
	}
	return out
}
