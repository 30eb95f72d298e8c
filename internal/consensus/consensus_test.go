package consensus

import (
	"testing"
	"time"

	"sharper/internal/types"
)

func TestUniformTopology(t *testing.T) {
	topo := UniformTopology(types.Byzantine, 3, 1)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(topo.Clusters) != 3 {
		t.Fatalf("%d clusters, want 3", len(topo.Clusters))
	}
	if got := len(topo.AllNodes()); got != 12 {
		t.Fatalf("%d nodes, want 12", got)
	}
	for _, c := range topo.ClusterIDs() {
		if len(topo.Members(c)) != 4 {
			t.Fatalf("cluster %s has %d members, want 4", c, len(topo.Members(c)))
		}
	}
	// Every node maps back to its cluster.
	for _, id := range topo.AllNodes() {
		if _, ok := topo.ClusterOf(id); !ok {
			t.Fatalf("node %s unmapped", id)
		}
	}
}

func TestPrimaryRotation(t *testing.T) {
	topo := UniformTopology(types.CrashOnly, 1, 1)
	m := topo.Members(0)
	seen := map[types.NodeID]bool{}
	for v := uint64(0); v < 6; v++ {
		seen[topo.Primary(0, v)] = true
	}
	if len(seen) != len(m) {
		t.Fatalf("rotation covered %d of %d members", len(seen), len(m))
	}
	if topo.Primary(0, 0) == topo.Primary(0, 1) {
		t.Fatal("view change did not rotate the primary")
	}
}

func TestQuorumSizes(t *testing.T) {
	crash := UniformTopology(types.CrashOnly, 1, 2) // 5-node cluster
	if got := crash.IntraQuorum(0); got != 3 {
		t.Fatalf("crash quorum %d, want 3", got)
	}
	byz := UniformTopology(types.Byzantine, 1, 2) // 7-node cluster
	if got := byz.CrossQuorum(0); got != 5 {
		t.Fatalf("byz quorum %d, want 5", got)
	}
}

func TestValidateRejectsUndersizedCluster(t *testing.T) {
	topo := &Topology{
		Model: types.Byzantine,
		Clusters: map[types.ClusterID]Cluster{
			0: {ID: 0, F: 1, Members: []types.NodeID{0, 1, 2}}, // needs 4
		},
	}
	if err := topo.Validate(); err == nil {
		t.Fatal("undersized cluster validated")
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	topo := &Topology{
		Model: types.CrashOnly,
		Clusters: map[types.ClusterID]Cluster{
			0: {ID: 0, F: 1, Members: []types.NodeID{0, 1, 2}},
			1: {ID: 1, F: 1, Members: []types.NodeID{2, 3, 4}}, // node 2 reused
		},
	}
	if err := topo.Validate(); err == nil {
		t.Fatal("overlapping clusters validated")
	}
}

func TestInvolvedNodesAndSuperPrimary(t *testing.T) {
	topo := UniformTopology(types.CrashOnly, 3, 1)
	set := types.NewClusterSet(2, 0)
	nodes := topo.InvolvedNodes(set)
	if len(nodes) != 6 {
		t.Fatalf("%d involved nodes, want 6", len(nodes))
	}
	views := func(types.ClusterID) uint64 { return 0 }
	if got := topo.SuperPrimary(set, views); got != topo.Primary(0, 0) {
		t.Fatalf("super primary %s, want primary of min cluster", got)
	}
}

func TestVoteSetQuorum(t *testing.T) {
	s := NewVoteSet()
	key := VoteKey{View: 1, Digest: types.HashBytes([]byte("d"))}
	s.Add(0, 1, key)
	s.Add(0, 2, key)
	s.Add(1, 10, key)
	set := types.NewClusterSet(0, 1)
	q := func(types.ClusterID) int { return 2 }
	if s.QuorumAll(set, key, q) {
		t.Fatal("quorum reported with cluster 1 short")
	}
	s.Add(1, 11, key)
	if !s.QuorumAll(set, key, q) {
		t.Fatal("quorum missed")
	}
	// Re-voting must replace, not double count.
	s2 := NewVoteSet()
	s2.Add(0, 1, key)
	s2.Add(0, 1, key)
	if s2.Count(0, key) != 1 {
		t.Fatal("duplicate vote double counted")
	}
}

func TestHashVoteSetAgreesOnPrev(t *testing.T) {
	s := NewHashVoteSet()
	key := VoteKey{View: 1, Digest: types.HashBytes([]byte("d"))}
	hA := types.HashBytes([]byte("headA"))
	hB := types.HashBytes([]byte("headB"))
	s.Add(0, 1, HashVote{Key: key, Prev: hA, Valid: 1})
	s.Add(0, 2, HashVote{Key: key, Prev: hB, Valid: 1})
	if _, _, ok := s.QuorumPrev(0, key, 2); ok {
		t.Fatal("split votes produced a quorum")
	}
	s.Add(0, 3, HashVote{Key: key, Prev: hA, Valid: 1})
	h, valid, ok := s.QuorumPrev(0, key, 2)
	if !ok || h != hA || valid&1 == 0 {
		t.Fatalf("quorum = (%v,%v,%v)", h, valid, ok)
	}
}

func TestHashVoteSetValidityAggregation(t *testing.T) {
	s := NewHashVoteSet()
	key := VoteKey{View: 1, Digest: types.HashBytes([]byte("d"))}
	h0 := types.HashBytes([]byte("h0"))
	h1 := types.HashBytes([]byte("h1"))
	// The validity bitmap aggregates per transaction: cluster 0 votes both
	// batch txs valid, cluster 1 votes only tx 0 valid → only bit 0 survives.
	s.Add(0, 1, HashVote{Key: key, Prev: h0, Valid: 0b11})
	s.Add(0, 2, HashVote{Key: key, Prev: h0, Valid: 0b11})
	s.Add(1, 10, HashVote{Key: key, Prev: h1, Valid: 0b01})
	s.Add(1, 11, HashVote{Key: key, Prev: h1, Valid: 0b01})
	set := types.NewClusterSet(0, 1)
	hashes, valid, ok := s.QuorumAllPrev(set, key, func(types.ClusterID) int { return 2 })
	if !ok {
		t.Fatal("quorum missed")
	}
	if valid != 0b01 {
		t.Fatalf("validity bitmap = %b, want 01 (AND across clusters)", valid)
	}
	if hashes[0] != h0 || hashes[1] != h1 {
		t.Fatal("hash list misordered")
	}
}

func TestMatchImpossible(t *testing.T) {
	s := NewHashVoteSet()
	key := VoteKey{View: 1, Digest: types.HashBytes([]byte("d"))}
	// Cluster of size 3, quorum 2. Votes split three ways → impossible.
	s.Add(0, 1, HashVote{Key: key, Prev: types.HashBytes([]byte("a"))})
	s.Add(0, 2, HashVote{Key: key, Prev: types.HashBytes([]byte("b"))})
	if s.MatchImpossible(0, key, 2, 3) {
		t.Fatal("impossible reported while a third vote could still match")
	}
	s.Add(0, 3, HashVote{Key: key, Prev: types.HashBytes([]byte("c"))})
	if !s.MatchImpossible(0, key, 2, 3) {
		t.Fatal("three-way split not reported impossible")
	}
}

func TestReplyCacheEviction(t *testing.T) {
	c := NewReplyCache(3)
	id := func(seq uint64) types.TxID { return types.TxID{Client: 1, Seq: seq} }
	for seq := uint64(1); seq <= 5; seq++ {
		c.Put(id(seq), &types.Reply{TxID: id(seq)})
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}
	// Oldest two evicted, newest three present.
	for seq := uint64(1); seq <= 2; seq++ {
		if c.Contains(id(seq)) {
			t.Fatalf("entry %d not evicted", seq)
		}
	}
	for seq := uint64(3); seq <= 5; seq++ {
		r, ok := c.Get(id(seq))
		if !ok || r.TxID != id(seq) {
			t.Fatalf("entry %d missing", seq)
		}
	}
	// Re-put refreshes the value without duplicating.
	c.Put(id(4), &types.Reply{TxID: id(4), Committed: true})
	if r, _ := c.Get(id(4)); !r.Committed {
		t.Fatal("re-put did not refresh")
	}
	if c.Len() != 3 {
		t.Fatalf("re-put changed size: %d", c.Len())
	}
	// The cache holds a copy: the caller's Reply is not kept alive, and
	// changing it afterwards does not change the cached verdict.
	mine := &types.Reply{TxID: id(5), Replica: 7, Committed: true, Result: 42}
	c.Put(id(5), mine)
	mine.Committed, mine.Result = false, 0
	if r, _ := c.Get(id(5)); r == mine || *r != (types.Reply{TxID: id(5), Replica: 7, Committed: true, Result: 42}) {
		t.Fatalf("cached reply %+v follows the caller's object", *r)
	}
}

func TestReplyCacheCompaction(t *testing.T) {
	// Churn far beyond capacity: internal order slice must stay bounded
	// (this is what the head>cap compaction guarantees).
	c := NewReplyCache(8)
	for seq := uint64(0); seq < 10_000; seq++ {
		c.Put(types.TxID{Client: 1, Seq: seq}, &types.Reply{})
	}
	if c.Len() != 8 {
		t.Fatalf("len %d, want 8", c.Len())
	}
	if got := cap(c.order); got > 64 {
		t.Fatalf("order slice grew to cap %d despite compaction", got)
	}
}

func TestReplyCacheSweepExpires(t *testing.T) {
	c := NewReplyCache(16)
	id := func(seq uint64) types.TxID { return types.TxID{Client: 1, Seq: seq} }
	for seq := uint64(1); seq <= 4; seq++ {
		c.Put(id(seq), &types.Reply{TxID: id(seq)})
	}
	// Nothing is older than a cutoff in the past.
	if n := c.Sweep(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("past cutoff swept %d", n)
	}
	// Everything is older than a cutoff in the future.
	if n := c.Sweep(time.Now().Add(time.Hour)); n != 4 {
		t.Fatalf("future cutoff swept %d, want 4", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len %d after sweep", c.Len())
	}
	// The cache keeps working after a full sweep.
	c.Put(id(9), &types.Reply{TxID: id(9)})
	if !c.Contains(id(9)) {
		t.Fatal("put after sweep lost")
	}
}

func TestReplyCacheChurn10kClients(t *testing.T) {
	// 10k distinct clients each run a few transactions through a large
	// cache; periodic sweeps with a dedup-window cutoff must keep the live
	// set bounded by the churn between sweeps, not by capacity, and the
	// order slice must not grow with total traffic — nor start at capacity:
	// a 65,536-entry cache that holds 3,000 entries is sized for 3,000.
	c := NewReplyCache(1 << 16)
	if got := cap(c.order); got != 0 {
		t.Fatalf("fresh cache pre-allocated %d order slots", got)
	}
	live := 0
	for client := 0; client < 10_000; client++ {
		for seq := uint64(1); seq <= 3; seq++ {
			id := types.TxID{Client: types.ClientIDBase + types.NodeID(client), Seq: seq}
			c.Put(id, &types.Reply{TxID: id})
			live++
		}
		if client%1000 == 999 {
			// Everything inserted so far is "outside the dedup window".
			if n := c.Sweep(time.Now().Add(time.Second)); n != live {
				t.Fatalf("sweep at client %d dropped %d, want %d", client, n, live)
			}
			live = 0
			if got := c.Len(); got != 0 {
				t.Fatalf("live entries %d after sweep", got)
			}
		}
	}
	if got := c.Len(); got > 3000 {
		t.Fatalf("unswept tail %d exceeds churn bound", got)
	}
	if got := cap(c.order); got > 1<<13 {
		t.Fatalf("order slice grew to %d under a churn of 3000", got)
	}
}
