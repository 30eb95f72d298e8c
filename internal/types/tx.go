package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Hash is a SHA-256 digest. It is used both as the cryptographic hash linking
// blocks in the DAG ledger (§2.3) and as the message digest D(m) of §2.1.
type Hash [32]byte

// ZeroHash is the all-zero hash; it marks "no predecessor" slots and is the
// parent of the genesis block.
var ZeroHash Hash

func (h Hash) String() string { return fmt.Sprintf("%x", h[:6]) }

// IsZero reports whether h is the zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// HashBytes returns the SHA-256 digest of b.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// encScratch pools encoding buffers for digest computation, so the hot path
// (every quorum check, chain walk, and wire frame re-derives some digest)
// runs without per-call allocations.
var encScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// sumEncoding hashes what enc appends to a pooled scratch buffer. Nothing of
// the encoding outlives the call: a digest is derived from the value's
// current content every time, so a mutated value can never report a stale
// one, and a committed transaction or block holds no copy of its own bytes.
// Buffers that grew beyond 1 MiB are dropped so one huge sync response cannot
// pin memory forever.
func sumEncoding(enc func([]byte) []byte) Hash {
	bp := encScratch.Get().(*[]byte)
	*bp = enc((*bp)[:0])
	sum := sha256.Sum256(*bp)
	if cap(*bp) <= 1<<20 {
		encScratch.Put(bp)
	}
	return sum
}

// AccountID names an account in the account-based data model (§2.4).
// The shard an account lives in is derived from the ID by the shard map.
type AccountID uint64

func (a AccountID) String() string { return fmt.Sprintf("acct:%d", uint64(a)) }

// Op is a single read-modify-write step inside a transaction: transfer
// Amount units out of From (negative effects) into To. A transaction "might
// read and write several records" (§4), so it carries a slice of Ops.
type Op struct {
	From   AccountID
	To     AccountID
	Amount int64
}

// TxKind distinguishes ordinary transfers from the 2PC control entries the
// AHL baseline orders through per-committee consensus.
type TxKind uint8

// Transaction kinds. SharPer itself uses only TxTransfer; the AHL baseline
// threads its two-phase commit through consensus as control entries.
const (
	TxTransfer   TxKind = iota // ordinary account transfer
	TxAHLBegin                 // reference committee: start 2PC for the wrapped tx
	TxAHLPrepare               // cluster: vote request (lock + validate)
	TxAHLCommit                // cluster: 2PC decision = commit
	TxAHLAbort                 // cluster: 2PC decision = abort
	TxAHLDecide                // reference committee: record the decision
)

// Transaction is the unit of execution; blocks batch one or more of them as
// the unit of ordering (the paper's §2.3 single-transaction block is the
// batch-of-1 case). Involved is the normalized set of clusters whose shards
// the transaction touches; len(Involved)==1 means intra-shard.
type Transaction struct {
	// ID is unique per client request: high bits client, low bits sequence.
	ID TxID
	// Kind discriminates transfers from AHL 2PC control entries.
	Kind TxKind
	// Client that issued the request.
	Client NodeID
	// Timestamp τ_c from the client, used for liveness timers and dedup.
	Timestamp int64
	// Ops are the transfers to apply atomically.
	Ops []Op
	// Involved is the set of clusters the Ops touch (precomputed by the
	// client or the receiving primary through the shard map).
	Involved ClusterSet
}

// TxID identifies a transaction: the client's NodeID and a per-client
// sequence number.
type TxID struct {
	Client NodeID
	Seq    uint64
}

func (t TxID) String() string { return fmt.Sprintf("%s#%d", t.Client, t.Seq) }

// IsCrossShard reports whether the transaction spans more than one cluster.
func (t *Transaction) IsCrossShard() bool { return len(t.Involved) > 1 }

// Digest returns D(m): the SHA-256 digest of the transaction's canonical
// encoding. Two correct nodes always compute the same digest for the same
// transaction. Each call encodes into a pooled buffer and hashes it; a
// caller that needs the digest twice holds it.
func (t *Transaction) Digest() Hash { return sumEncoding(t.Encode) }

// Encode appends the canonical binary encoding of t to dst and returns the
// extended slice. The layout is fixed-width little-endian fields followed by
// length-prefixed repeated sections, so the encoding is deterministic.
func (t *Transaction) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.ID.Client))
	dst = binary.LittleEndian.AppendUint64(dst, t.ID.Seq)
	dst = append(dst, byte(t.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Client))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Timestamp))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t.Ops)))
	for _, op := range t.Ops {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(op.From))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(op.To))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(op.Amount))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t.Involved)))
	for _, c := range t.Involved {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(c))
	}
	return dst
}

// DecodeTransaction parses a transaction from b, returning the transaction
// and the number of bytes consumed.
func DecodeTransaction(b []byte) (*Transaction, int, error) {
	const fixed = 4 + 8 + 1 + 4 + 8 + 2
	if len(b) < fixed {
		return nil, 0, fmt.Errorf("types: short transaction: %d bytes", len(b))
	}
	t := &Transaction{}
	off := 0
	t.ID.Client = NodeID(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	t.ID.Seq = binary.LittleEndian.Uint64(b[off:])
	off += 8
	t.Kind = TxKind(b[off])
	off++
	t.Client = NodeID(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	t.Timestamp = int64(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	nOps := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+nOps*24+2 {
		return nil, 0, fmt.Errorf("types: short transaction ops section")
	}
	if nOps > 0 {
		t.Ops = make([]Op, nOps)
	}
	for i := 0; i < nOps; i++ {
		t.Ops[i].From = AccountID(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		t.Ops[i].To = AccountID(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		t.Ops[i].Amount = int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	nInv := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+nInv*2 {
		return nil, 0, fmt.Errorf("types: short transaction involved section")
	}
	t.Involved = make(ClusterSet, nInv)
	for i := 0; i < nInv; i++ {
		t.Involved[i] = ClusterID(binary.LittleEndian.Uint16(b[off:]))
		off += 2
	}
	return t, off, nil
}

// Block is one vertex of the DAG ledger: a batch of transactions plus one
// predecessor hash per involved cluster. The paper (§2.3) uses
// single-transaction blocks; this implementation generalizes the block to a
// batch so one consensus instance amortizes its quorum message cost over many
// transactions (the paper's block is the batch-of-1 special case). Every
// transaction in a batch shares the same involved-cluster set, so the
// parent-slot layout of §2.3 is unchanged: for an intra-shard block Parents
// has exactly one entry; for a cross-shard block it has one entry per
// involved cluster, in the same order as the shared Involved set.
type Block struct {
	Txs     []*Transaction
	Parents []Hash
}

// Involved returns the involved-cluster set shared by every transaction in
// the block (empty for an empty block, e.g. genesis placeholders).
func (bl *Block) Involved() ClusterSet {
	if len(bl.Txs) == 0 {
		return nil
	}
	return bl.Txs[0].Involved
}

// IsCrossShard reports whether the block's batch spans more than one cluster.
func (bl *Block) IsCrossShard() bool { return len(bl.Involved()) > 1 }

// BatchDigest returns D(m) for the block's batch — the value consensus votes
// refer to. Tampering with any transaction in the batch changes the digest.
func (bl *Block) BatchDigest() Hash { return BatchDigest(bl.Txs) }

// BatchDigest returns the SHA-256 digest of the canonical encoding of a
// transaction batch. Two correct nodes always compute the same digest for
// the same ordered batch; any bit of any transaction changes it.
func BatchDigest(txs []*Transaction) Hash {
	return sumEncoding(func(dst []byte) []byte { return EncodeTxBatch(dst, txs) })
}

// Encode appends the canonical encoding of the block.
func (bl *Block) Encode(dst []byte) []byte {
	dst = EncodeTxBatch(dst, bl.Txs)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(bl.Parents)))
	for _, p := range bl.Parents {
		dst = append(dst, p[:]...)
	}
	return dst
}

// DecodeBlock parses a block from b, returning the block and bytes consumed.
func DecodeBlock(b []byte) (*Block, int, error) {
	txs, off, err := decodeTxBatch(b)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < off+2 {
		return nil, 0, fmt.Errorf("types: short block header")
	}
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+n*32 {
		return nil, 0, fmt.Errorf("types: short block parents section")
	}
	bl := &Block{Txs: txs, Parents: make([]Hash, n)}
	for i := 0; i < n; i++ {
		copy(bl.Parents[i][:], b[off:off+32])
		off += 32
	}
	return bl, off, nil
}

// Hash returns the block's cryptographic hash, covering the transaction and
// all parent links. This is the value successor blocks chain to; the ledger
// view holds it per block, so a chain walk reads it rather than re-deriving it.
func (bl *Block) Hash() Hash { return sumEncoding(bl.Encode) }

// EncodeTxBatch appends a length-prefixed batch of transactions, used by
// the active/passive baselines to stream execution results efficiently.
func EncodeTxBatch(dst []byte, txs []*Transaction) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(txs)))
	for _, t := range txs {
		dst = t.Encode(dst)
	}
	return dst
}

// DecodeTxBatch parses a batch written by EncodeTxBatch.
func DecodeTxBatch(b []byte) ([]*Transaction, error) {
	txs, _, err := decodeTxBatch(b)
	return txs, err
}

// decodeTxBatch parses a batch and reports the bytes consumed.
func decodeTxBatch(b []byte) ([]*Transaction, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("types: short tx batch")
	}
	n := int(binary.LittleEndian.Uint16(b))
	off := 2
	out := make([]*Transaction, 0, n)
	for i := 0; i < n; i++ {
		t, used, err := DecodeTransaction(b[off:])
		if err != nil {
			return nil, 0, err
		}
		out = append(out, t)
		off += used
	}
	return out, off, nil
}
