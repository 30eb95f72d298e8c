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
	// cluster, so every transaction of the batch maps to the same hash).
	seen := make(map[types.TxID]types.Hash)
	for _, v := range d.views {
		for _, b := range v.CrossShardBlocks() {
			h := b.Hash()
			for _, tx := range b.Txs {
				if prev, ok := seen[tx.ID]; ok && prev != h {
					return fmt.Errorf("ledger: cross-shard tx %s committed with diverging content", tx.ID)
				}
				seen[tx.ID] = h
			}
		}
	}
	// Every involved cluster we hold a view for must have the block.
	for _, v := range d.views {
		for _, b := range v.CrossShardBlocks() {
			for _, tx := range b.Txs {
				for _, c := range tx.Involved {
					ov, ok := d.views[c]
					if !ok {
						continue // partial union: tolerated
					}
					if !ov.Contains(tx.ID) {
						return fmt.Errorf("ledger: cross-shard tx %s missing from involved cluster %s", tx.ID, c)
					}
				}
			}
		}
	}
	return nil
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
func (d *DAG) VerifyPairwiseOrder() error {
	// position[txID][cluster] = index in that cluster's view
	position := make(map[types.TxID]map[types.ClusterID]int)
	for c, v := range d.views {
		for i, b := range v.Blocks() {
			if i == 0 || !b.IsCrossShard() {
				continue
			}
			for _, tx := range b.Txs {
				m, ok := position[tx.ID]
				if !ok {
					m = make(map[types.ClusterID]int)
					position[tx.ID] = m
				}
				m[c] = i
			}
		}
	}
	ids := make([]types.TxID, 0, len(position))
	for id := range position {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Client != ids[j].Client {
			return ids[i].Client < ids[j].Client
		}
		return ids[i].Seq < ids[j].Seq
	})
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := position[ids[i]], position[ids[j]]
			order := 0 // 0 unknown, 1 a<b, -1 a>b
			for c, pa := range a {
				pb, ok := b[c]
				if !ok {
					continue
				}
				var o int
				if pa < pb {
					o = 1
				} else {
					o = -1
				}
				if order == 0 {
					order = o
				} else if order != o {
					return fmt.Errorf("ledger: txs %s and %s commit in conflicting orders on overlapping clusters",
						ids[i], ids[j])
				}
				_ = c
			}
		}
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
