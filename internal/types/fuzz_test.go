package types

import (
	"bytes"
	"testing"
)

// The wire decoders receive bytes straight off TCP sockets once the tcpnet
// backend is in play, so each must reject arbitrary malformed input with an
// error — never panic, never over-read. The fuzz targets also pin the
// round-trip property on inputs that do decode: re-encoding the decoded
// value must reproduce the consumed bytes.

func fuzzTx(seq uint64) *Transaction {
	return &Transaction{
		ID:        TxID{Client: ClientIDBase + 3, Seq: seq},
		Client:    ClientIDBase + 3,
		Timestamp: 42,
		Ops:       []Op{{From: 1, To: 2, Amount: 7}, {From: 9, To: 1, Amount: -3}},
		Involved:  NewClusterSet(0, 2),
	}
}

// checkEncodedLen pins EncodedLen to the encoding on every transaction a
// fuzz target decodes, its seeds included.
func checkEncodedLen(t *testing.T, txs []*Transaction) {
	t.Helper()
	for _, tx := range txs {
		if got, want := tx.EncodedLen(), len(tx.Encode(nil)); got != want {
			t.Fatalf("EncodedLen %d, encoding %d bytes", got, want)
		}
	}
}

// TestTransactionEncodedLen: the seeds' transaction and an empty one.
func TestTransactionEncodedLen(t *testing.T) {
	checkEncodedLen(t, []*Transaction{fuzzTx(1), {}})
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Envelope{Type: MsgRequest, From: 7, Payload: []byte("hi"), Sig: []byte{1, 2, 3}}).Encode(nil))
	f.Add((&Envelope{Type: MsgCommit, From: ClientIDBase}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		env, used, err := DecodeEnvelope(b)
		if err != nil {
			return
		}
		if used > len(b) {
			t.Fatalf("consumed %d of %d bytes", used, len(b))
		}
		if !bytes.Equal(env.Encode(nil), b[:used]) {
			t.Fatalf("re-encode mismatch for %x", b[:used])
		}
	})
}

func FuzzDecodeViewChange(f *testing.F) {
	f.Add([]byte{})
	f.Add((&ViewChange{NewView: 3, Cluster: 1, LastSeq: 9, PreparedSeq: 10}).Encode(nil))
	f.Add((&ViewChange{NewView: 4, Cluster: 0, LastSeq: 11, Prepared: []PreparedInstance{
		{Seq: 12, View: 3, Digest: HashBytes([]byte("d")), Txs: []*Transaction{fuzzTx(9)}},
	}}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeViewChange(b)
		if err != nil {
			return
		}
		enc := v.Encode(nil)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

func FuzzDecodeTxBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTxBatch(nil, []*Transaction{fuzzTx(1), fuzzTx(2)}))
	f.Fuzz(func(t *testing.T, b []byte) {
		txs, err := DecodeTxBatch(b)
		if err != nil {
			return
		}
		checkEncodedLen(t, txs)
		enc := EncodeTxBatch(nil, txs)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

func FuzzDecodeConsensusMsg(f *testing.F) {
	f.Add([]byte{})
	m := &ConsensusMsg{View: 1, Seq: 2, Cluster: 3,
		PrevHashes: []Hash{HashBytes([]byte("a")), HashBytes([]byte("b"))},
		Txs:        []*Transaction{fuzzTx(5)}}
	f.Add(m.Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeConsensusMsg(b)
		if err != nil {
			return
		}
		checkEncodedLen(t, m.Txs)
		enc := m.Encode(nil)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

func FuzzDecodeSyncResponse(f *testing.F) {
	f.Add([]byte{})
	blk := &Block{Txs: []*Transaction{fuzzTx(8)}, Parents: []Hash{HashBytes([]byte("p")), {}}}
	f.Add((&SyncResponse{From: 4, Blocks: []*Block{blk}}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSyncResponse(b)
		if err != nil {
			return
		}
		enc := s.Encode(nil)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

func FuzzDecodeSyncRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add((&SyncRequest{From: 77}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSyncRequest(b)
		if err != nil {
			return
		}
		enc := s.Encode(nil)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Reply{TxID: TxID{Client: ClientIDBase + 1, Seq: 2}, Replica: 3, Committed: true, Result: -9}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeReply(b)
		if err != nil {
			return
		}
		enc := r.Encode(nil)
		// Committed is one byte on the wire; any nonzero-but-not-1 value
		// decodes to false, so re-encoding may legitimately differ there.
		if len(b) < len(enc) {
			t.Fatalf("decoder consumed more than available")
		}
	})
}

func FuzzDecodeSubmit(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Submit{Via: 0, Txs: []*Transaction{fuzzTx(1)}}).Encode(nil))
	f.Add((&Submit{Via: 5, Txs: []*Transaction{fuzzTx(2), fuzzTx(3)}}).Encode(nil))
	f.Add((&SubmitReply{TxID: TxID{Client: ClientIDBase + 1, Seq: 9}, Replica: 2, Code: SubmitOverloaded}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := DecodeSubmit(b); err == nil {
			checkEncodedLen(t, s.Txs)
			enc := s.Encode(nil)
			if !bytes.Equal(enc, b[:len(enc)]) {
				t.Fatalf("submit re-encode mismatch")
			}
		}
		if r, err := DecodeSubmitReply(b); err == nil {
			enc := r.Encode(nil)
			if !bytes.Equal(enc, b[:len(enc)]) {
				t.Fatalf("submit-reply re-encode mismatch")
			}
		}
	})
}

func FuzzDecodeStateDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add((&StateDigest{Node: 3, Height: 7, Applied: 41, Hash: HashBytes([]byte("state"))}).Encode(nil))
	f.Add((&StateDigest{Node: ClientIDBase}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeStateDigest(b)
		if err != nil {
			return
		}
		enc := s.Encode(nil)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch for %x", b[:len(enc)])
		}
	})
}

// FuzzDecodeQueryResponse splits a query response into its kind and body,
// and decodes the body as that kind's dump: whatever decodes must re-encode
// to the same bytes behind the same kind byte.
func FuzzDecodeQueryResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{byte(QueryTrace) + 1})
	f.Add((&MetricsDump{Node: 2, Metrics: []MetricVal{{Name: "committed_txs", Values: []uint64{4}}}}).Encode([]byte{byte(QueryMetrics)}))
	f.Add((&StateDigest{Node: 3, Height: 7}).Encode([]byte{byte(QueryState)}))
	f.Add((&TraceDump{Node: 1, Lines: []string{"propose v=0 seq=1"}}).Encode([]byte{byte(QueryTrace)}))
	f.Add((&MetricsDump{Node: 4, Metrics: []MetricVal{{Name: "stage_intra_prepared_us", Kind: 2, Values: []uint64{3, 900, 0, 1, 2}}}}).Encode([]byte{byte(QueryMetrics)}))
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, body, err := DecodeQueryResponse(b)
		if err != nil {
			return
		}
		prefix := []byte{byte(kind)}
		var enc []byte
		switch kind {
		case QueryMetrics:
			if d, err := DecodeMetricsDump(body); err == nil {
				enc = d.Encode(prefix)
			}
		case QueryState:
			if d, err := DecodeStateDigest(body); err == nil {
				enc = d.Encode(prefix)
			}
		case QueryTrace:
			if d, err := DecodeTraceDump(body); err == nil {
				enc = d.Encode(prefix)
			}
		default:
			t.Fatalf("decoded unknown query kind %d", kind)
		}
		if enc != nil && !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("%d: re-encode mismatch for %x", kind, b[:len(enc)])
		}
	})
}

func FuzzDecodeMetricsDump(f *testing.F) {
	f.Add([]byte{})
	f.Add((&MetricsDump{Node: 2}).Encode(nil))
	f.Add((&MetricsDump{Node: 5, Metrics: []MetricVal{
		{Name: "committed_txs", Kind: 0, Values: []uint64{42}},
		{Name: "stage_intra_prepared_us", Kind: 2, Values: []uint64{3, 900, 0, 1, 2}},
	}}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeMetricsDump(b)
		if err != nil {
			return
		}
		enc := d.Encode(nil)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch for %x", b[:len(enc)])
		}
	})
}

func FuzzDecodeTraceDump(f *testing.F) {
	f.Add([]byte{})
	f.Add((&TraceDump{Node: 3, Lines: []string{"propose v=0 seq=1", "commit-msg v=0 seq=1"}}).Encode(nil))
	f.Add((&TraceDump{Node: ClientIDBase}).Encode(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeTraceDump(b)
		if err != nil {
			return
		}
		enc := d.Encode(nil)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch for %x", b[:len(enc)])
		}
	})
}
