package ledger

import (
	"bytes"
	"testing"

	"sharper/internal/types"
)

// FuzzViewAppend appends a random valid chain to a set of views: random batch
// sizes, random involved sets and with them random cross-shard parent sets.
// Every view must hand back blocks that re-encode to exactly the bytes it
// stored and hash to exactly the hash it chained, verify, and stop verifying
// once any one stored byte is flipped.
func FuzzViewAppend(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x07, 0xff, 0x02, 0x30, 0x51, 0x0e})
	f.Add(bytes.Repeat([]byte{0x5a, 0xc3, 0x0f}, 40))
	f.Fuzz(func(t *testing.T, in []byte) {
		// The chain consumes the input; the corruption sites are drawn from
		// it again, from the start, so they vary with it too.
		sites := append([]byte(nil), in...)
		site := func(n int) int {
			h := 0
			if len(sites) > 0 {
				h = int(sites[0])<<8 | len(sites)
				sites = sites[1:]
			}
			return h % n
		}
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b
		}
		k := 1 + next()%4
		views := make([]*View, k)
		for c := range views {
			views[c] = NewView(types.ClusterID(c))
		}
		seq := uint64(0)
		for len(in) > 0 {
			mask := next() % (1 << k)
			if mask == 0 {
				mask = 1 << (next() % k)
			}
			var inv []types.ClusterID
			for c := 0; c < k; c++ {
				if mask&(1<<c) != 0 {
					inv = append(inv, types.ClusterID(c))
				}
			}
			set := types.NewClusterSet(inv...)
			txs := make([]*types.Transaction, 1+next()%17)
			for i := range txs {
				seq++
				client := types.ClientIDBase + types.NodeID(next()%5)
				txs[i] = &types.Transaction{
					ID: types.TxID{Client: client, Seq: seq}, Client: client,
					Timestamp: int64(next()) << 20,
					Ops:       make([]types.Op, next()%3),
					Involved:  set,
				}
				for j := range txs[i].Ops {
					txs[i].Ops[j] = types.Op{From: types.AccountID(next()), To: types.AccountID(next()), Amount: int64(next())}
				}
			}
			parents := make([]types.Hash, len(set))
			for s, c := range set {
				parents[s] = views[c].Head()
			}
			b := &types.Block{Txs: txs, Parents: parents}
			for _, c := range set {
				if err := views[c].Append(b); err != nil {
					t.Fatalf("append to %s: %v", c, err)
				}
			}
		}
		for _, v := range views {
			for i, b := range v.Blocks() {
				enc, h := v.stored(i)
				if !bytes.Equal(b.Encode(nil), enc) {
					t.Fatalf("view %s block %d re-encodes to different bytes", v.Cluster(), i)
				}
				if b.Hash() != h || types.HashBytes(enc) != h {
					t.Fatalf("view %s block %d hash differs from the chained hash", v.Cluster(), i)
				}
			}
			if err := v.Verify(); err != nil {
				t.Fatalf("view %s: %v", v.Cluster(), err)
			}
			i := site(v.Len())
			at := site(v.storedLen(i))
			v.flipStoredByte(i, at)
			if v.Verify() == nil {
				t.Fatalf("view %s verifies with byte %d of block %d flipped", v.Cluster(), at, i)
			}
			v.flipStoredByte(i, at)
			if err := v.Verify(); err != nil {
				t.Fatalf("view %s after restoring the byte: %v", v.Cluster(), err)
			}
		}
		if err := NewDAG(views...).Audit(); err != nil {
			t.Fatal(err)
		}
	})
}
