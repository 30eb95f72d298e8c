package ledger

import (
	"math/rand"
	"sort"
	"testing"

	"sharper/internal/types"
)

// quadraticPairwiseOrder is the reference VerifyPairwiseOrder: every pair of
// cross-shard transactions, compared on every cluster that holds both. It
// reports whether it found a conflict. Positions are chain indices, and a
// transaction held twice by one view is placed at its last block.
func quadraticPairwiseOrder(d *DAG) bool {
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
				o := -1
				if pa < pb {
					o = 1
				}
				if order == 0 {
					order = o
				} else if order != o {
					return true
				}
			}
		}
	}
	return false
}

// randomDAG builds views over clusters 0..k-1 from one global sequence of
// batches: intra-shard batches, and cross-shard batches of one to four
// transactions over random involved sets, each appended to every view it
// involves. With plant set, one view then appends two of its cross-shard
// batches in swapped order. Batches keep their grouping in every view, so
// same-block pairs are same-block everywhere.
func randomDAG(rng *rand.Rand, plant bool) *DAG {
	k := 2 + rng.Intn(3)
	views := make([]*View, k)
	for c := range views {
		views[c] = NewView(types.ClusterID(c))
	}
	seq := uint64(0)
	var batches [][]*types.Transaction
	for n := 4 + rng.Intn(24); n > 0; n-- {
		var inv []types.ClusterID
		for c := 0; c < k; c++ {
			if rng.Intn(2) == 0 {
				inv = append(inv, types.ClusterID(c))
			}
		}
		if len(inv) == 0 {
			inv = []types.ClusterID{types.ClusterID(rng.Intn(k))}
		}
		set := types.NewClusterSet(inv...)
		var txs []*types.Transaction
		for m := 1 + rng.Intn(4); m > 0; m-- {
			seq++
			client := types.ClientIDBase + types.NodeID(rng.Intn(3))
			txs = append(txs, &types.Transaction{
				ID: types.TxID{Client: client, Seq: seq}, Client: client,
				Ops: []types.Op{{From: 1, To: 2, Amount: 1}}, Involved: set,
			})
		}
		batches = append(batches, txs)
	}
	order := make([][]int, k) // per view, indices into batches
	for i, txs := range batches {
		for _, c := range txs[0].Involved {
			order[c] = append(order[c], i)
		}
	}
	if plant {
		c := rng.Intn(k)
		var cross []int
		for p, i := range order[c] {
			if len(batches[i][0].Involved) > 1 {
				cross = append(cross, p)
			}
		}
		if len(cross) >= 2 {
			p := rng.Perm(len(cross))
			a, b := cross[p[0]], cross[p[1]]
			order[c][a], order[c][b] = order[c][b], order[c][a]
		}
	}
	for c, v := range views {
		for _, i := range order[c] {
			txs := batches[i]
			parents := make([]types.Hash, len(txs[0].Involved))
			for s, ic := range txs[0].Involved {
				if ic == types.ClusterID(c) {
					parents[s] = v.Head()
				} else {
					parents[s] = types.HashBytes([]byte{byte(ic), byte(i)})
				}
			}
			if err := v.Append(&types.Block{Txs: txs, Parents: parents}); err != nil {
				panic(err)
			}
		}
	}
	return NewDAG(views...)
}

// TestPairwiseOrderMatchesQuadraticOracle: the one-pass-per-pair check and
// the all-pairs walk it replaced agree on random DAGs, consistent ones and
// ones with a planted reorder, multi-transaction batches included.
func TestPairwiseOrderMatchesQuadraticOracle(t *testing.T) {
	conflicts := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(rng, seed%2 == 1)
		want := quadraticPairwiseOrder(d)
		got := d.VerifyPairwiseOrder() != nil
		if got != want {
			t.Fatalf("seed %d: linear check reports conflict=%v, quadratic oracle %v\n%s",
				seed, got, want, d.RenderASCII())
		}
		if seed%2 == 0 && got {
			t.Fatalf("seed %d: conflict reported on a DAG built in one global order\n%s", seed, d.RenderASCII())
		}
		if got {
			conflicts++
		}
	}
	if conflicts < 50 {
		t.Fatalf("only %d of 200 planted reorders were conflicts; the generator plants too few", conflicts)
	}
}

// TestPairwiseOrderSameBlockPairs: transactions batched into one block share
// a position in every view and never conflict with each other; a reorder
// between two batches is still caught through any member.
func TestPairwiseOrderSameBlockPairs(t *testing.T) {
	v0, v1 := NewView(0), NewView(1)
	x := []*types.Transaction{crossTx(types.ClientIDBase+1, 1, 0, 1), crossTx(types.ClientIDBase+2, 1, 0, 1)}
	y := []*types.Transaction{crossTx(types.ClientIDBase+3, 1, 0, 1), crossTx(types.ClientIDBase+1, 2, 0, 1)}
	for _, txs := range [][]*types.Transaction{x, y} {
		b := &types.Block{Txs: txs, Parents: []types.Hash{v0.Head(), v1.Head()}}
		if err := v0.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := v1.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := NewDAG(v0, v1).Audit(); err != nil {
		t.Fatalf("consistent batched DAG: %v", err)
	}
	w0, w1 := NewView(0), NewView(1)
	for _, txs := range [][]*types.Transaction{x, y} {
		if err := w0.Append(&types.Block{Txs: txs, Parents: []types.Hash{w0.Head(), GenesisHash()}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, txs := range [][]*types.Transaction{y, x} {
		if err := w1.Append(&types.Block{Txs: txs, Parents: []types.Hash{GenesisHash(), w1.Head()}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := NewDAG(w0, w1).VerifyPairwiseOrder(); err == nil {
		t.Fatal("reordered batches not reported")
	}
}
