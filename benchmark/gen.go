package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
)

// mix is the §4 accounting workload: clients spread evenly over the clusters
// ("the load is equally distributed among all the nodes"), a fixed percentage
// of transactions spans two randomly chosen shards (§4.1), the rest stay in
// their home shard, and accounts are drawn uniformly.
type mix struct {
	shards        int // number of clusters; one shard each
	accounts      int // seeded accounts per shard
	crossPerMille int // cross-shard transactions per thousand, 0–1000
}

// generator produces the benchmark's inputs from a seed. It belongs to the
// benchmark, not the program: the program only ever sees the transactions it
// emits, and a later change to the program's own workload code cannot move
// them. Not safe for concurrent use.
type generator struct {
	mix
	rng  *rand.Rand
	home int // round-robin home cluster of the next intra-shard transaction
}

func newGenerator(m mix, seed int64) *generator {
	return &generator{mix: m, rng: rand.New(rand.NewSource(seed))}
}

// account is the k-th account of shard c under modulo placement. The driver
// checks at start-up that the program's shard map agrees (see checkPlacement).
func (m mix) account(c, k int) AccountID {
	return AccountID(uint64(c) + uint64(k)*uint64(m.shards))
}

// distinctPair draws two different integers uniformly from [0, n).
func (g *generator) distinctPair(n int) (int, int) {
	a := g.rng.Intn(n)
	b := g.rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// next returns the op-list of the next transaction: one transfer of one unit,
// inside the home shard or from one random shard to another.
func (g *generator) next() []Op {
	home := g.home % g.shards
	g.home++
	if g.shards > 1 && g.rng.Intn(1000) < g.crossPerMille {
		a, b := g.distinctPair(g.shards)
		return []Op{{
			From:   g.account(a, g.rng.Intn(g.accounts)),
			To:     g.account(b, g.rng.Intn(g.accounts)),
			Amount: 1,
		}}
	}
	from, to := g.distinctPair(g.accounts)
	return []Op{{From: g.account(home, from), To: g.account(home, to), Amount: 1}}
}

// opsDigest hashes the first n op-lists of a generator; the golden test pins
// it so the inputs cannot drift unnoticed.
func opsDigest(g *generator, n int) string {
	h := sha256.New()
	var buf [24]byte
	for i := 0; i < n; i++ {
		for _, op := range g.next() {
			binary.LittleEndian.PutUint64(buf[0:], uint64(op.From))
			binary.LittleEndian.PutUint64(buf[8:], uint64(op.To))
			binary.LittleEndian.PutUint64(buf[16:], uint64(op.Amount))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// involved is the set of clusters whose shards the ops touch.
func (m mix) involved(ops []Op) ClusterSet {
	ids := make([]ClusterID, 0, 2*len(ops))
	for _, op := range ops {
		ids = append(ids, ClusterID(uint64(op.From)%uint64(m.shards)), ClusterID(uint64(op.To)%uint64(m.shards)))
	}
	return NewClusterSet(ids...)
}
