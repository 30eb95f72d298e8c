package types

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// MsgType discriminates protocol messages on the wire.
type MsgType uint8

// Message kinds. One namespace is shared by every protocol in the repo so a
// node can dispatch on the type alone.
const (
	MsgInvalid MsgType = iota

	// Client traffic.
	MsgRequest // client → primary: ordered transaction request
	MsgReply   // replica → client: execution result

	// Intra-shard ordering (§3.1, Fig. 3a/3b, and the §4 two-phase
	// baselines). Every vote policy speaks the same three kinds; the
	// cluster's failure model, not the kind, says which protocol sent them.
	MsgPropose // primary → cluster: Paxos accept, PBFT pre-prepare
	MsgVote    // node → primary (crash) or → cluster: accepted, prepare
	MsgCommit  // primary (crash) or node (byz) → cluster; unused by fast

	// Flattened cross-shard consensus (§3.2 Alg. 1, §3.3 Alg. 2).
	MsgXPropose // initiator primary → all nodes of involved clusters
	MsgXAccept  // node → primary (crash) or → all involved nodes (byz)
	MsgXCommit  // primary → involved nodes (crash) or node → all (byz)
	MsgXAbort   // initiator → involved nodes: attempt withdrawn, release locks

	// Chain synchronization (state transfer for lagging replicas).
	MsgSyncRequest  // node → cluster peer: send me blocks from index N
	MsgSyncResponse // peer → node: requested blocks

	// View change (every vote policy; §3.2/§3.3 liveness).
	MsgViewChange
	MsgNewView

	// AHL baseline reference-committee 2PC (§4.1).
	MsgAHLPrepare    // RC → involved cluster primaries: vote request
	MsgAHLVote       // cluster → RC: prepared / abort
	MsgAHLDecision   // RC → involved clusters: commit / abort
	MsgAHLAck        // cluster → RC: decision applied
	MsgAHLRCInternal // intra-RC consensus traffic wrapper

	// Active/passive replication baseline.
	MsgAPRStateUpdate // active replica → passive replicas

	// Operator queries: a driver asks a replica for one dump (QueryKind)
	// and the replica answers with the kind byte followed by the dump.
	MsgQuery
	MsgQueryResponse

	// Client ingress: a transaction batch submitted to a gateway replica for
	// mempool admission (client → gateway, or gateway → primary propagation
	// batch), and the gateway's per-transaction outcome reply.
	MsgSubmit
	MsgSubmitReply
)

var msgNames = map[MsgType]string{
	MsgRequest: "request", MsgReply: "reply",
	MsgPropose: "propose", MsgVote: "vote", MsgCommit: "commit",
	MsgXPropose: "x-propose", MsgXAccept: "x-accept", MsgXCommit: "x-commit", MsgXAbort: "x-abort",
	MsgSyncRequest: "sync-req", MsgSyncResponse: "sync-resp",
	MsgViewChange: "view-change", MsgNewView: "new-view",
	MsgAHLPrepare: "ahl-prepare", MsgAHLVote: "ahl-vote", MsgAHLDecision: "ahl-decision",
	MsgAHLAck: "ahl-ack", MsgAHLRCInternal: "ahl-rc",
	MsgAPRStateUpdate: "apr-update",
	MsgQuery:          "query", MsgQueryResponse: "query-resp",
	MsgSubmit: "submit", MsgSubmitReply: "submit-reply",
}

func (m MsgType) String() string {
	if s, ok := msgNames[m]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(m))
}

// Envelope is the unit the transport delivers: a typed payload plus sender
// identity and, under the Byzantine model, a signature over the payload.
// Channels are pairwise authenticated (§2.1), so From is trustworthy even
// when Sig is empty (crash model).
type Envelope struct {
	Type    MsgType
	From    NodeID
	Payload []byte
	Sig     []byte

	// auth caches the protocol-level signature verdict over (From, Payload,
	// Sig), set by the parallel verification pool ahead of the consensus
	// loop: 0 unverified, 1 valid, 2 invalid. Atomic because the simulated
	// fabric multicasts one envelope pointer to many nodes, whose pools may
	// verify it concurrently (they share the deployment keyring, so every
	// writer stores the same verdict). Never encoded on the wire.
	auth atomic.Uint32
}

// MarkAuth records the signature verdict for the envelope's payload.
func (e *Envelope) MarkAuth(ok bool) {
	v := uint32(2)
	if ok {
		v = 1
	}
	e.auth.Store(v)
}

// Auth returns the cached signature verdict. known is false when no
// verification pool has processed the envelope — the consumer must verify
// inline then (e.g. envelopes stepped directly into an engine by tests).
func (e *Envelope) Auth() (ok, known bool) {
	switch e.auth.Load() {
	case 1:
		return true, true
	case 2:
		return false, true
	default:
		return false, false
	}
}

// Encode appends the canonical wire encoding of the envelope: type, sender,
// then length-prefixed payload and signature. This is the unit the TCP
// backend frames onto the wire; the simulated fabric passes envelopes by
// pointer and never serializes them.
func (e *Envelope) Encode(dst []byte) []byte {
	dst = append(dst, byte(e.Type))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Payload)))
	dst = append(dst, e.Payload...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Sig)))
	dst = append(dst, e.Sig...)
	return dst
}

// DecodeEnvelope parses an envelope from b, returning the envelope and the
// number of bytes consumed. The payload and signature alias b; callers that
// reuse the buffer must copy first (the TCP backend reads each frame into a
// fresh buffer, so aliasing is safe there).
func DecodeEnvelope(b []byte) (*Envelope, int, error) {
	const hdr = 1 + 4 + 4
	if len(b) < hdr {
		return nil, 0, fmt.Errorf("types: short envelope header: %d bytes", len(b))
	}
	e := &Envelope{
		Type: MsgType(b[0]),
		From: NodeID(binary.LittleEndian.Uint32(b[1:])),
	}
	plen := binary.LittleEndian.Uint32(b[5:])
	off := hdr
	if uint64(plen) > uint64(len(b)-off) {
		return nil, 0, fmt.Errorf("types: envelope payload length %d exceeds %d remaining bytes", plen, len(b)-off)
	}
	if plen > 0 {
		e.Payload = b[off : off+int(plen)]
	}
	off += int(plen)
	if len(b) < off+2 {
		return nil, 0, fmt.Errorf("types: short envelope signature length")
	}
	slen := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if slen > len(b)-off {
		return nil, 0, fmt.Errorf("types: envelope signature length %d exceeds %d remaining bytes", slen, len(b)-off)
	}
	if slen > 0 {
		e.Sig = b[off : off+slen]
	}
	off += slen
	return e, off, nil
}

// Request is the client's signed transaction request ⟨REQUEST, tx, τ_c, c⟩.
type Request struct {
	Tx *Transaction
}

// Encode appends the canonical encoding.
func (r *Request) Encode(dst []byte) []byte { return r.Tx.Encode(dst) }

// DecodeRequest parses a Request.
func DecodeRequest(b []byte) (*Request, error) {
	tx, _, err := DecodeTransaction(b)
	if err != nil {
		return nil, err
	}
	return &Request{Tx: tx}, nil
}

// Reply is a replica's response to the client.
type Reply struct {
	TxID      TxID
	Replica   NodeID
	Committed bool // false ⇒ the transaction was rejected by validation
	Result    int64
}

// Encode appends the canonical encoding.
func (r *Reply) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.TxID.Client))
	dst = binary.LittleEndian.AppendUint64(dst, r.TxID.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Replica))
	if r.Committed {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Result))
	return dst
}

// DecodeReply parses a Reply.
func DecodeReply(b []byte) (*Reply, error) {
	if len(b) < 4+8+4+1+8 {
		return nil, fmt.Errorf("types: short reply")
	}
	r := &Reply{}
	r.TxID.Client = NodeID(binary.LittleEndian.Uint32(b))
	r.TxID.Seq = binary.LittleEndian.Uint64(b[4:])
	r.Replica = NodeID(binary.LittleEndian.Uint32(b[12:]))
	r.Committed = b[16] == 1
	r.Result = int64(binary.LittleEndian.Uint64(b[17:]))
	return r, nil
}

// Submit is the client-ingress payload: a batch of transactions offered to a
// gateway replica for mempool admission. Via distinguishes the two hops of
// the ingest path: zero means a direct client submit (the receiver owes the
// client a SubmitReply per transaction), nonzero names the gateway replica
// that already admitted the batch and is propagating it to its primary for
// ordering (no reply owed — the origin gateway answers the client from its
// own commit observation).
type Submit struct {
	Via NodeID
	Txs []*Transaction
}

// Encode appends the canonical encoding.
func (s *Submit) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Via))
	return EncodeTxBatch(dst, s.Txs)
}

// DecodeSubmit parses a Submit.
func DecodeSubmit(b []byte) (*Submit, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("types: short submit")
	}
	s := &Submit{Via: NodeID(binary.LittleEndian.Uint32(b))}
	txs, _, err := decodeTxBatch(b[4:])
	if err != nil {
		return nil, err
	}
	s.Txs = txs
	return s, nil
}

// SubmitCode is the gateway's admission/commit verdict for one submitted
// transaction.
type SubmitCode uint8

// Submit outcomes. Committed/Rejected arrive after ordering and execution;
// Overloaded and Expired are immediate admission-control verdicts (the client
// should back off, or re-issue with a fresh timestamp, respectively).
const (
	SubmitCommitted  SubmitCode = iota // ordered, executed, and applied
	SubmitRejected                     // ordered but failed validation
	SubmitOverloaded                   // shed: pending pool at capacity
	SubmitExpired                      // timestamp outside the mempool TTL
)

func (c SubmitCode) String() string {
	switch c {
	case SubmitCommitted:
		return "committed"
	case SubmitRejected:
		return "rejected"
	case SubmitOverloaded:
		return "overloaded"
	case SubmitExpired:
		return "expired"
	}
	return fmt.Sprintf("SubmitCode(%d)", uint8(c))
}

// SubmitReply is a gateway's per-transaction response to a Submit.
type SubmitReply struct {
	TxID    TxID
	Replica NodeID
	Code    SubmitCode
}

// Encode appends the canonical encoding (fixed 17 bytes).
func (r *SubmitReply) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.TxID.Client))
	dst = binary.LittleEndian.AppendUint64(dst, r.TxID.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Replica))
	dst = append(dst, byte(r.Code))
	return dst
}

// DecodeSubmitReply parses a SubmitReply.
func DecodeSubmitReply(b []byte) (*SubmitReply, error) {
	if len(b) < 4+8+4+1 {
		return nil, fmt.Errorf("types: short submit reply")
	}
	r := &SubmitReply{}
	r.TxID.Client = NodeID(binary.LittleEndian.Uint32(b))
	r.TxID.Seq = binary.LittleEndian.Uint64(b[4:])
	r.Replica = NodeID(binary.LittleEndian.Uint32(b[12:]))
	if b[16] > byte(SubmitExpired) {
		return nil, fmt.Errorf("types: bad submit reply code %d", b[16])
	}
	r.Code = SubmitCode(b[16])
	return r, nil
}

// ConsensusMsg is the single payload shape shared by every ordering protocol
// in the repo (Paxos, PBFT, flattened cross-shard, baselines). Fields unused
// by a given protocol/phase are left zero; the codec is tolerant of that.
//
// Field mapping to the paper:
//   - View: current view (primary epoch) of the sending cluster.
//   - Seq: per-cluster sequence number (the paper chains by hash; we carry
//     the hash in PrevHashes and a sequence for quorum bookkeeping). The
//     flattened cross-shard protocol reuses this field as the per-transaction
//     validity bitmap of the carried batch (bit i = batch transaction i
//     passed local validation), which caps cross-shard batches at 64.
//   - Digest: D(m), the batch digest (types.BatchDigest) the vote refers to.
//   - Cluster: the cluster the *sender* speaks for.
//   - PrevHashes: h_i, h_j, h_k … — one prior-block hash per involved
//     cluster. Slot order matches Involved order in the carried batch;
//     for phase-1 messages only the sender's slot is filled.
//   - Txs: full transaction batch; carried only on proposal-phase messages.
type ConsensusMsg struct {
	View       uint64
	Seq        uint64
	Digest     Hash
	Cluster    ClusterID
	PrevHashes []Hash
	Txs        []*Transaction
}

// Encode appends the canonical encoding of m.
func (m *ConsensusMsg) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.View)
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = append(dst, m.Digest[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(m.Cluster))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.PrevHashes)))
	for _, h := range m.PrevHashes {
		dst = append(dst, h[:]...)
	}
	if len(m.Txs) > 0 {
		dst = append(dst, 1)
		dst = EncodeTxBatch(dst, m.Txs)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// PeekConsensusSeq reads the Seq field of an encoded ConsensusMsg without
// decoding the rest — the scheduler's slot-conflict check needs only the
// sequence, and a full decode (including the tx batch) on the dispatch hot
// path would be paid twice. Layout lockstep with Encode: View(8) | Seq(8).
func PeekConsensusSeq(b []byte) (uint64, bool) {
	if len(b) < 16 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[8:]), true
}

// DecodeConsensusMsg parses a ConsensusMsg.
func DecodeConsensusMsg(b []byte) (*ConsensusMsg, error) {
	const fixed = 8 + 8 + 32 + 2 + 2
	if len(b) < fixed {
		return nil, fmt.Errorf("types: short consensus message: %d bytes", len(b))
	}
	m := &ConsensusMsg{}
	off := 0
	m.View = binary.LittleEndian.Uint64(b[off:])
	off += 8
	m.Seq = binary.LittleEndian.Uint64(b[off:])
	off += 8
	copy(m.Digest[:], b[off:off+32])
	off += 32
	m.Cluster = ClusterID(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+n*32+1 {
		return nil, fmt.Errorf("types: short consensus message hash section")
	}
	m.PrevHashes = make([]Hash, n)
	for i := 0; i < n; i++ {
		copy(m.PrevHashes[i][:], b[off:off+32])
		off += 32
	}
	hasTx := b[off]
	off++
	switch hasTx {
	case 0:
	case 1:
		txs, _, err := decodeTxBatch(b[off:])
		if err != nil {
			return nil, err
		}
		if len(txs) == 0 {
			return nil, fmt.Errorf("types: consensus message tx flag set on empty batch")
		}
		m.Txs = txs
	default:
		// Found by fuzzing: a lax flag byte made malformed input decode to a
		// message that re-encodes differently, a digest-confusion hazard.
		return nil, fmt.Errorf("types: bad consensus message tx flag %d", hasTx)
	}
	return m, nil
}

// SyncRequest asks a cluster peer for the blocks of its view starting at
// index From (state transfer for replicas that fell behind while blocked on
// a cross-shard transaction).
type SyncRequest struct {
	From uint64
}

// Encode appends the canonical encoding.
func (s *SyncRequest) Encode(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, s.From)
}

// DecodeSyncRequest parses a SyncRequest.
func DecodeSyncRequest(b []byte) (*SyncRequest, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("types: short sync request")
	}
	return &SyncRequest{From: binary.LittleEndian.Uint64(b)}, nil
}

// SyncResponse returns a contiguous run of blocks starting at index From.
type SyncResponse struct {
	From   uint64
	Blocks []*Block
}

// Encode appends the canonical encoding.
func (s *SyncResponse) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.From)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.Blocks)))
	for _, b := range s.Blocks {
		dst = b.Encode(dst)
	}
	return dst
}

// DecodeSyncResponse parses a SyncResponse.
func DecodeSyncResponse(b []byte) (*SyncResponse, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("types: short sync response")
	}
	s := &SyncResponse{From: binary.LittleEndian.Uint64(b)}
	n := int(binary.LittleEndian.Uint16(b[8:]))
	off := 10
	s.Blocks = make([]*Block, 0, n)
	for i := 0; i < n; i++ {
		bl, used, err := DecodeBlock(b[off:])
		if err != nil {
			return nil, err
		}
		s.Blocks = append(s.Blocks, bl)
		off += used
	}
	return s, nil
}

// QueryKind selects the dump an operator query (MsgQuery) asks a replica
// for. The request payload is the kind byte alone; the response payload is
// the kind byte followed by the dump's encoding. A replica does not answer
// a kind it does not know.
type QueryKind uint8

// Operator query kinds.
const (
	QueryMetrics QueryKind = iota + 1 // MetricsDump: the full obs registry
	QueryState                        // StateDigest: the store fingerprint
	QueryTrace                        // TraceDump: the protocol-event rings
)

// DecodeQueryResponse splits a MsgQueryResponse payload into its kind and
// the dump encoding that follows it.
func DecodeQueryResponse(b []byte) (QueryKind, []byte, error) {
	if len(b) == 0 {
		return 0, nil, fmt.Errorf("types: empty query response")
	}
	k := QueryKind(b[0])
	if k < QueryMetrics || k > QueryTrace {
		return 0, nil, fmt.Errorf("types: unknown query kind %d", k)
	}
	return k, b[1:], nil
}

// TraceDump carries one replica's protocol-event ring (the engines' bounded
// debug rings) to a requesting driver. Lines is empty when the replica runs
// without Config.Trace (sharperd -trace).
type TraceDump struct {
	Node  NodeID
	Lines []string
}

// maxTraceLine bounds a single decoded trace line; the rings hold short
// formatted protocol events, so anything huge is a hostile length prefix.
const maxTraceLine = 1 << 16

// Encode appends the canonical encoding.
func (t *TraceDump) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Node))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Lines)))
	for _, l := range t.Lines {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l)))
		dst = append(dst, l...)
	}
	return dst
}

// DecodeTraceDump parses a TraceDump.
func DecodeTraceDump(b []byte) (*TraceDump, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("types: short trace dump")
	}
	t := &TraceDump{Node: NodeID(binary.LittleEndian.Uint32(b))}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	off := 8
	for i := 0; i < n; i++ {
		if len(b) < off+4 {
			return nil, fmt.Errorf("types: short trace dump line header")
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l > maxTraceLine || l > len(b)-off {
			return nil, fmt.Errorf("types: trace dump line overruns buffer")
		}
		t.Lines = append(t.Lines, string(b[off:off+l]))
		off += l
	}
	return t, nil
}

// SchedStats is one replica's cross-shard scheduler counters. The
// conflict-aware scheduler's behaviour is otherwise invisible from outside a
// process: these are how benchmarks and the sharperd audits see leads
// pipelining and deferral precision working. Over the wire they travel as
// the sched_* gauges of a QueryMetrics dump.
type SchedStats struct {
	Node NodeID
	// Flattened-protocol event counts.
	Proposes     uint64 // initiator PROPOSE multicasts (incl. retries)
	Withdraws    uint64 // initiator attempt withdrawals
	Grants       uint64 // participant votes granted (slot-vote acquisitions)
	Decides      uint64 // attempts decided at this node as initiator
	LockExpiries uint64 // slot votes released by the §3.2 timeout
	Parks        uint64 // proposals parked for a busy slot or undrained chain
	// Conflict-table scheduling state.
	LeadsInFlight uint64 // current in-flight initiator attempts
	LeadHighWater uint64 // most leads ever in flight together
	TableSize     uint64 // live attempts tracked right now
	Defers        uint64 // intra messages deferred on a slot conflict
	DefersAvoided uint64 // intra messages processed despite a held slot vote
	SelfVoteWaits uint64 // initiator self-votes deferred for a busy slot
}

// Add accumulates other's counters into s (for deployment-wide aggregates;
// Node is left alone).
func (s *SchedStats) Add(other *SchedStats) {
	s.Proposes += other.Proposes
	s.Withdraws += other.Withdraws
	s.Grants += other.Grants
	s.Decides += other.Decides
	s.LockExpiries += other.LockExpiries
	s.Parks += other.Parks
	s.LeadsInFlight += other.LeadsInFlight
	s.LeadHighWater += other.LeadHighWater
	s.TableSize += other.TableSize
	s.Defers += other.Defers
	s.DefersAvoided += other.DefersAvoided
	s.SelfVoteWaits += other.SelfVoteWaits
}

// StateDigest is one replica's deterministic store fingerprint, answered to
// a QueryState: the chain height the store reflects, the number of
// transactions applied, and the hash over sorted balances. Replicas of a
// cluster reporting the same Height must report the same Hash — the wire
// audit's proof that conflict-partitioned parallel apply produced the same
// state serial execution would have.
type StateDigest struct {
	Node    NodeID
	Height  uint64
	Applied uint64
	Hash    Hash
}

// stateDigestSize is the fixed wire size of a StateDigest.
const stateDigestSize = 4 + 8 + 8 + 32

// Encode appends the canonical encoding.
func (s *StateDigest) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Node))
	dst = binary.LittleEndian.AppendUint64(dst, s.Height)
	dst = binary.LittleEndian.AppendUint64(dst, s.Applied)
	return append(dst, s.Hash[:]...)
}

// DecodeStateDigest parses a StateDigest.
func DecodeStateDigest(b []byte) (*StateDigest, error) {
	if len(b) < stateDigestSize {
		return nil, fmt.Errorf("types: short state digest: %d bytes", len(b))
	}
	s := &StateDigest{
		Node:    NodeID(binary.LittleEndian.Uint32(b)),
		Height:  binary.LittleEndian.Uint64(b[4:]),
		Applied: binary.LittleEndian.Uint64(b[12:]),
	}
	copy(s.Hash[:], b[20:])
	return s, nil
}

// MetricVal is one metric in a MetricsDump: counters and gauges carry a
// single value, histograms carry [count, sum, bucket0..bucketN-1] so the
// receiver can re-extract quantiles and merge fleet-wide (bucket layouts are
// fixed, see obs.NumBuckets).
type MetricVal struct {
	Name   string
	Kind   uint8 // 0 counter, 1 gauge, 2 histogram
	Values []uint64
}

// MetricsDump carries one replica's full metrics-registry snapshot, answered
// to a QueryMetrics (the registry cousin of TraceDump).
type MetricsDump struct {
	Node    NodeID
	Metrics []MetricVal
}

// Bounds on a decoded MetricsDump; the registry holds dozens of short-named
// metrics, so anything bigger is a hostile length prefix.
const (
	maxMetricName   = 256
	maxMetricValues = 256
	maxMetricsCount = 1 << 14
)

// Encode appends the canonical encoding.
func (d *MetricsDump) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.Node))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.Metrics)))
	for i := range d.Metrics {
		m := &d.Metrics[i]
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Name)))
		dst = append(dst, m.Name...)
		dst = append(dst, m.Kind)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Values)))
		for _, v := range m.Values {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	return dst
}

// DecodeMetricsDump parses a MetricsDump.
func DecodeMetricsDump(b []byte) (*MetricsDump, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("types: short metrics dump")
	}
	d := &MetricsDump{Node: NodeID(binary.LittleEndian.Uint32(b))}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if n > maxMetricsCount {
		return nil, fmt.Errorf("types: metrics dump count %d exceeds bound", n)
	}
	off := 8
	for i := 0; i < n; i++ {
		if len(b) < off+2 {
			return nil, fmt.Errorf("types: short metrics dump name header")
		}
		nameLen := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if nameLen > maxMetricName || nameLen > len(b)-off {
			return nil, fmt.Errorf("types: metrics dump name overruns buffer")
		}
		m := MetricVal{Name: string(b[off : off+nameLen])}
		off += nameLen
		if len(b) < off+3 {
			return nil, fmt.Errorf("types: short metrics dump value header")
		}
		m.Kind = b[off]
		vals := int(binary.LittleEndian.Uint16(b[off+1:]))
		off += 3
		if vals > maxMetricValues || vals*8 > len(b)-off {
			return nil, fmt.Errorf("types: metrics dump values overrun buffer")
		}
		m.Values = make([]uint64, vals)
		for j := 0; j < vals; j++ {
			m.Values[j] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
		d.Metrics = append(d.Metrics, m)
	}
	return d, nil
}

// VoteProof is one signed vote inside a prepared certificate: the named
// node signed the canonical prepare/commit payload for (view, seq, digest).
type VoteProof struct {
	Node NodeID
	Sig  []byte
}

// PreparedInstance reports one accepted-but-uncommitted consensus instance
// inside a ViewChange, including the transaction body so the new primary can
// re-propose the value even when it never received the original proposal
// (it may have been deferred behind a cross-shard lock, or lost). Carrying
// the body is what makes the Paxos phase-1 value recovery actually work: a
// value that reached a commit quorum at the deposed primary is reported by
// at least one member of any view-change quorum (quorum intersection), and
// the new primary re-binds it before anything else can take its slot.
//
// Under the Byzantine model the claim must be provable: Proof carries 2f+1
// distinct nodes' signatures over the prepare/commit payload (they share
// one canonical encoding), so a single honest reporter suffices and no
// coalition of f liars can fabricate a binding.
type PreparedInstance struct {
	Seq    uint64
	View   uint64 // view the instance was accepted in; highest view wins
	Digest Hash
	// Parent is the chain parent the certified votes bound: vote payloads
	// carry it (see votePayload in internal/ordering), so certificate
	// verification must reconstruct it.
	Parent Hash
	Txs    []*Transaction
	Proof  []VoteProof
}

// ViewChange carries a node's vote to depose the current primary, together
// with its last committed sequence and every accepted-but-uncommitted
// instance (with bodies) so the new primary can resume without losing
// possibly-committed values.
type ViewChange struct {
	NewView      uint64
	Cluster      ClusterID
	LastSeq      uint64
	LastHash     Hash
	PreparedSeq  uint64 // highest sequence this node voted for but saw no commit
	PreparedHash Hash   // digest of that in-flight proposal (zero if none)
	Prepared     []PreparedInstance
}

// Encode appends the canonical encoding.
func (v *ViewChange) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, v.NewView)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(v.Cluster))
	dst = binary.LittleEndian.AppendUint64(dst, v.LastSeq)
	dst = append(dst, v.LastHash[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, v.PreparedSeq)
	dst = append(dst, v.PreparedHash[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Prepared)))
	for _, p := range v.Prepared {
		dst = binary.LittleEndian.AppendUint64(dst, p.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, p.View)
		dst = append(dst, p.Digest[:]...)
		dst = append(dst, p.Parent[:]...)
		dst = EncodeTxBatch(dst, p.Txs)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Proof)))
		for _, pr := range p.Proof {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(pr.Node))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pr.Sig)))
			dst = append(dst, pr.Sig...)
		}
	}
	return dst
}

// DecodeViewChange parses a ViewChange.
func DecodeViewChange(b []byte) (*ViewChange, error) {
	if len(b) < 8+2+8+32+8+32+2 {
		return nil, fmt.Errorf("types: short view-change")
	}
	v := &ViewChange{}
	off := 0
	v.NewView = binary.LittleEndian.Uint64(b[off:])
	off += 8
	v.Cluster = ClusterID(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	v.LastSeq = binary.LittleEndian.Uint64(b[off:])
	off += 8
	copy(v.LastHash[:], b[off:off+32])
	off += 32
	v.PreparedSeq = binary.LittleEndian.Uint64(b[off:])
	off += 8
	copy(v.PreparedHash[:], b[off:off+32])
	off += 32
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	for i := 0; i < n; i++ {
		if len(b) < off+8+8+32+32 {
			return nil, fmt.Errorf("types: short view-change prepared entry")
		}
		var p PreparedInstance
		p.Seq = binary.LittleEndian.Uint64(b[off:])
		off += 8
		p.View = binary.LittleEndian.Uint64(b[off:])
		off += 8
		copy(p.Digest[:], b[off:off+32])
		off += 32
		copy(p.Parent[:], b[off:off+32])
		off += 32
		txs, used, err := decodeTxBatch(b[off:])
		if err != nil {
			return nil, err
		}
		off += used
		p.Txs = txs
		if len(b) < off+2 {
			return nil, fmt.Errorf("types: short view-change proof count")
		}
		np := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		for j := 0; j < np; j++ {
			if len(b) < off+4+2 {
				return nil, fmt.Errorf("types: short view-change proof header")
			}
			var pr VoteProof
			pr.Node = NodeID(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			slen := int(binary.LittleEndian.Uint16(b[off:]))
			off += 2
			if slen > len(b)-off {
				return nil, fmt.Errorf("types: view-change proof signature overruns buffer")
			}
			if slen > 0 {
				pr.Sig = b[off : off+slen]
			}
			off += slen
			p.Proof = append(p.Proof, pr)
		}
		v.Prepared = append(v.Prepared, p)
	}
	return v, nil
}
