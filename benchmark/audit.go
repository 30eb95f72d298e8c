package main

import (
	"fmt"
	"sort"
)

// pairwiseQuadraticLimit is the most cross-shard transactions for which the
// audit also calls the program's own DAG.VerifyPairwiseOrder. That check
// compares every pair, so on the busy workloads (15k+ cross-shard
// transactions) it alone would take longer than the run; above the limit only
// the audit's own linear-time check of the same property runs.
const pairwiseQuadraticLimit = 4000

// audit is the correctness gate. It runs on a halted system and returns the
// first violation found:
//
//   - the union ledger of one live replica per cluster verifies (hash chains,
//     cross-shard blocks identical and present in every involved cluster);
//   - any two cross-shard transactions that share two clusters commit in the
//     same order on both;
//   - every live replica of a cluster holds the same chain and the same
//     store fingerprint, and a crashed replica's chain is a prefix of it;
//   - balances still sum to what was seeded;
//   - every transaction the driver saw commit is in each involved cluster's
//     chain exactly once, and no chain holds any transaction twice.
func (s *system) audit() error {
	if s.restartErr != nil {
		return fmt.Errorf("audit: restart: %w", s.restartErr)
	}
	topo := s.dep.Topo
	var views []*View
	var total int64
	for _, c := range topo.ClusterIDs() {
		var ref *Node
		for _, id := range topo.Members(c) {
			n := s.dep.Node(id)
			if s.crashed[id] {
				continue
			}
			if ref == nil {
				ref = n
				continue
			}
			rs, rh := ref.View().HeadInfo()
			ns, nh := n.View().HeadInfo()
			if rs != ns || rh != nh {
				return fmt.Errorf("audit: %s replicas %s and %s disagree on the chain head (%d %s vs %d %s)",
					c, ref.ID(), n.ID(), rs, rh, ns, nh)
			}
			if ref.Store().Fingerprint() != n.Store().Fingerprint() {
				return fmt.Errorf("audit: %s replicas %s and %s hold different state", c, ref.ID(), n.ID())
			}
		}
		if ref == nil {
			return fmt.Errorf("audit: %s has no live replica", c)
		}
		for _, id := range topo.Members(c) {
			if !s.crashed[id] {
				continue
			}
			stale, live := s.dep.Node(id).View().Blocks(), ref.View().Blocks()
			if len(stale) > len(live) {
				return fmt.Errorf("audit: crashed %s is ahead of its cluster", id)
			}
			for i, b := range stale {
				if b.Hash() != live[i].Hash() {
					return fmt.Errorf("audit: crashed %s diverges from its cluster at block %d", id, i)
				}
			}
		}
		views = append(views, ref.View())
		total += ref.Store().Total()
	}
	if total != s.seeded {
		return fmt.Errorf("audit: balances sum to %d, seeded %d", total, s.seeded)
	}

	dag := NewDAG(views...)
	if err := dag.Verify(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	// position[c][id] is the chain index of transaction id in cluster c.
	position := make(map[ClusterID]map[TxID]int, len(views))
	crossTxs := 0
	for _, v := range views {
		pos := make(map[TxID]int)
		for i, b := range v.Blocks() {
			for _, tx := range b.Txs {
				if _, dup := pos[tx.ID]; dup {
					return fmt.Errorf("audit: %s commits %s twice", v.Cluster(), tx.ID)
				}
				pos[tx.ID] = i
				if len(tx.Involved) > 1 && tx.Involved.Min() == v.Cluster() {
					crossTxs++
				}
			}
		}
		position[v.Cluster()] = pos
	}
	if err := pairwiseOrder(views, position); err != nil {
		return err
	}
	if crossTxs <= pairwiseQuadraticLimit {
		if err := dag.VerifyPairwiseOrder(); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
	}
	for _, tx := range s.drv.done {
		for _, c := range tx.involved {
			if _, ok := position[c][tx.id]; !ok {
				return fmt.Errorf("audit: %s was acknowledged committed but is not in %s's chain", tx.id, c)
			}
		}
	}
	return nil
}

// pairwiseOrder checks, for every pair of clusters, that the cross-shard
// transactions involving both appear in the same relative order on both
// chains: sorted by position on one chain, their positions on the other must
// not decrease. (Transactions of one block share a position on both.)
func pairwiseOrder(views []*View, position map[ClusterID]map[TxID]int) error {
	type pair struct{ a, b ClusterID }
	shared := make(map[pair][][2]int)
	for _, v := range views {
		a := v.Cluster()
		for i, blk := range v.Blocks() {
			if i == 0 || !blk.IsCrossShard() {
				continue
			}
			for _, b := range blk.Involved() {
				if b <= a {
					continue // each unordered pair once, from its lower cluster
				}
				if other, ok := position[b]; ok {
					if j, ok := other[blk.Txs[0].ID]; ok {
						shared[pair{a, b}] = append(shared[pair{a, b}], [2]int{i, j})
					}
				}
			}
		}
	}
	for p, seq := range shared {
		sort.Slice(seq, func(i, j int) bool { return seq[i][0] < seq[j][0] })
		for i := 1; i < len(seq); i++ {
			if seq[i][1] <= seq[i-1][1] {
				return fmt.Errorf("audit: clusters %s and %s commit shared cross-shard blocks in conflicting orders", p.a, p.b)
			}
		}
	}
	return nil
}
