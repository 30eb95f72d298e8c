package main

import "testing"

// goldenOps pins the benchmark's inputs: the first 1,000 op-lists for seed 1
// under a 4-shard, 1,024-account mix with 200 ‰ cross-shard. If this digest changes, every
// number measured before the change was measured on different inputs.
const goldenOps = "1f460544b811a5860dd6d4266013cb070824a52edde4ed36d36fe74b85f2c80d"

func TestGeneratorGolden(t *testing.T) {
	g := newGenerator(mix{shards: 4, accounts: accountsPerShard, crossPerMille: 200}, 1)
	if got := opsDigest(g, 1000); got != goldenOps {
		t.Errorf("first 1000 op-lists for seed 1 hash to %s, want %s", got, goldenOps)
	}
}

func TestGeneratorMix(t *testing.T) {
	m := mix{shards: 8, accounts: accountsPerShard, crossPerMille: 100}
	g := newGenerator(m, 7)
	const n = 20000
	cross := 0
	homes := make([]int, m.shards)
	for i := 0; i < n; i++ {
		ops := g.next()
		if len(ops) != 1 || ops[0].Amount != 1 || ops[0].From == ops[0].To {
			t.Fatalf("op-list %d is not one unit transfer between two accounts: %+v", i, ops)
		}
		inv := m.involved(ops)
		switch len(inv) {
		case 1:
			homes[inv[0]]++
		case 2:
			cross++
		default:
			t.Fatalf("op-list %d involves %d clusters", i, len(inv))
		}
		for _, a := range []AccountID{ops[0].From, ops[0].To} {
			if k := uint64(a) / uint64(m.shards); k >= accountsPerShard {
				t.Fatalf("account %d is outside the seeded range", a)
			}
		}
	}
	if share := float64(cross) / n; share < 0.09 || share > 0.11 {
		t.Errorf("cross-shard share %.3f, want 0.10", share)
	}
	for c, h := range homes {
		if want := float64(n-cross) / float64(m.shards); float64(h) < 0.9*want || float64(h) > 1.1*want {
			t.Errorf("home cluster %d got %d intra-shard transactions, want about %.0f", c, h, want)
		}
	}
	// Same seed, same inputs; another seed, other inputs.
	if opsDigest(newGenerator(m, 7), 100) != opsDigest(newGenerator(m, 7), 100) {
		t.Error("the same seed gave different inputs")
	}
	if opsDigest(newGenerator(m, 7), 100) == opsDigest(newGenerator(m, 8), 100) {
		t.Error("different seeds gave the same inputs")
	}
}
