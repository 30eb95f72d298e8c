package obs

import (
	"sync"
	"time"

	"sharper/internal/types"
)

// Stage names one point in a transaction's lifecycle. Stamps are taken at
// the node that ingested the request (the proposing primary for intra, the
// initiator for cross), so a single trace never mixes clocks.
type Stage uint8

const (
	StageIngest  Stage = iota // request accepted into the proposal queue
	StageSeal                 // batch sealed (accumulator flushed)
	StagePropose              // consensus instance launched; cross: the
	// seal→propose delta is the lead-pipeline wait for conflict-table admission
	StageLockGrant // cross only: initiator's own slot vote granted
	StagePrepared  // quorum reached (commit-quorum / prepared certificate)
	StageCommitted // decision applied to the DAG ledger
	StageExecuted  // transactions applied to the store by the commit pipeline
	StagePersisted // commit durably recorded per the persistence policy
	StageReplied   // reply sent to the client
	NumStages
)

var stageNames = [NumStages]string{
	"ingest", "seal", "propose", "lock_grant", "prepared", "committed", "executed", "persisted", "replied",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// TxTrace is the sampled lifecycle record of one transaction. At[i] is the
// unix-nano stamp of stage i, 0 when the stage was never reached (intra
// traces never stamp StageLockGrant).
type TxTrace struct {
	ID    types.TxID
	Cross bool
	At    [NumStages]int64

	// index back-references, so retiring a trace is O(bindings) not O(map)
	seqs    []uint64
	digests []types.Hash
}

// maxActiveTraces bounds the in-flight trace map: past this, new samples are
// skipped rather than growing without bound (e.g. a stalled shard).
const maxActiveTraces = 4096

// DefaultTraceSample is the 1-in-N sampling rate used when a node does not
// configure one.
const DefaultTraceSample = 16

// TxTracer records sampled per-transaction stage stamps and folds finished
// traces into per-stage delta histograms (separate intra and cross series,
// microsecond units, registered as stage_<series>_<stage>_us). All stamping
// happens on the node's single-threaded event loop; the mutex only guards
// against snapshot readers.
type TxTracer struct {
	sample uint64

	mu        sync.Mutex
	active    map[types.TxID]*TxTrace
	bySeq     map[uint64][]*TxTrace
	byDigest  map[types.Hash][]*TxTrace
	completed []*TxTrace // ring, next points at the oldest slot
	next      int
	total     int

	// hist[0] = intra series, hist[1] = cross; index = destination stage of
	// the delta (e.g. hist[s][StagePrepared] is propose→prepared time).
	hist [2][NumStages]*Histogram
	e2e  [2]*Histogram
}

// NewTxTracer builds a tracer sampling 1-in-sample transactions (≤0 picks
// DefaultTraceSample; 1 traces everything) and keeping the last `keep`
// finished traces for dumps and tests. Histograms register into reg; a nil
// reg still traces (tests), a nil tracer disables tracing entirely.
func NewTxTracer(reg *Registry, sample, keep int) *TxTracer {
	if sample <= 0 {
		sample = DefaultTraceSample
	}
	if keep <= 0 {
		keep = 256
	}
	t := &TxTracer{
		sample:    uint64(sample),
		active:    make(map[types.TxID]*TxTrace),
		bySeq:     make(map[uint64][]*TxTrace),
		byDigest:  make(map[types.Hash][]*TxTrace),
		completed: make([]*TxTrace, keep),
	}
	for s, series := range [2]string{"intra", "cross"} {
		for st := StageSeal; st < NumStages; st++ {
			if s == 0 && st == StageLockGrant {
				continue
			}
			t.hist[s][st] = reg.Histogram("stage_" + series + "_" + st.String() + "_us")
		}
		t.e2e[s] = reg.Histogram("stage_" + series + "_total_us")
	}
	return t
}

// Start begins a trace for tx if it falls in the sample; call at ingest.
func (t *TxTracer) Start(id types.TxID, cross bool, now time.Time) {
	if t == nil {
		return
	}
	if (id.Seq+uint64(id.Client))%t.sample != 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.active[id]; ok || len(t.active) >= maxActiveTraces {
		return
	}
	tr := &TxTrace{ID: id, Cross: cross}
	tr.At[StageIngest] = now.UnixNano()
	t.active[id] = tr
}

// Stamp records stage `s` for a traced transaction; first stamp wins, so
// re-proposals after a refused batch keep the original timing.
func (t *TxTracer) Stamp(id types.TxID, s Stage, now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if tr, ok := t.active[id]; ok && tr.At[s] == 0 {
		tr.At[s] = now.UnixNano()
	}
	t.mu.Unlock()
}

// BindSeq associates every traced transaction in ids with an intra-shard
// consensus sequence number, so the engine's prepared callback (keyed by
// seq) can stamp them.
func (t *TxTracer) BindSeq(seq uint64, ids []types.TxID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, id := range ids {
		if tr, ok := t.active[id]; ok {
			t.bySeq[seq] = append(t.bySeq[seq], tr)
			tr.seqs = append(tr.seqs, seq)
		}
	}
	t.mu.Unlock()
}

// StampSeq records stage `s` on every trace bound to seq.
func (t *TxTracer) StampSeq(seq uint64, s Stage, now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, tr := range t.bySeq[seq] {
		if tr.At[s] == 0 {
			tr.At[s] = now.UnixNano()
		}
	}
	t.mu.Unlock()
}

// BindDigest associates traced transactions with a cross-shard instance
// digest, so the cross engine's lock-grant/decide events can stamp them.
func (t *TxTracer) BindDigest(digest types.Hash, txs []*types.Transaction) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, tx := range txs {
		if tr, ok := t.active[tx.ID]; ok {
			t.byDigest[digest] = append(t.byDigest[digest], tr)
			tr.digests = append(tr.digests, digest)
		}
	}
	t.mu.Unlock()
}

// StampDigest records stage `s` on every trace bound to digest.
func (t *TxTracer) StampDigest(digest types.Hash, s Stage, now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, tr := range t.byDigest[digest] {
		if tr.At[s] == 0 {
			tr.At[s] = now.UnixNano()
		}
	}
	t.mu.Unlock()
}

// Finish stamps StageReplied, folds the trace's stage deltas into the
// series histograms, and retires it to the completed ring.
func (t *TxTracer) Finish(id types.TxID, now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	tr, ok := t.active[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	if tr.At[StageReplied] == 0 {
		tr.At[StageReplied] = now.UnixNano()
	}
	delete(t.active, id)
	t.scrub(tr)
	t.completed[t.next] = tr
	t.next = (t.next + 1) % len(t.completed)
	t.total++
	t.mu.Unlock()

	series := 0
	if tr.Cross {
		series = 1
	}
	prev := tr.At[StageIngest]
	for s := StageSeal; s < NumStages; s++ {
		at := tr.At[s]
		if at == 0 {
			continue
		}
		d := at - prev
		if d < 0 {
			d = 0
		}
		t.hist[series][s].Observe(uint64(d) / 1e3)
		prev = at
	}
	if end := tr.At[StageReplied]; end != 0 && end >= tr.At[StageIngest] {
		t.e2e[series].Observe(uint64(end-tr.At[StageIngest]) / 1e3)
	}
}

// scrub removes tr from the seq/digest indexes, dropping emptied buckets so
// refused or re-proposed instances cannot leak index entries. Called with
// t.mu held.
func (t *TxTracer) scrub(tr *TxTrace) {
	for _, seq := range tr.seqs {
		t.bySeq[seq] = removeTrace(t.bySeq[seq], tr)
		if len(t.bySeq[seq]) == 0 {
			delete(t.bySeq, seq)
		}
	}
	for _, d := range tr.digests {
		t.byDigest[d] = removeTrace(t.byDigest[d], tr)
		if len(t.byDigest[d]) == 0 {
			delete(t.byDigest, d)
		}
	}
	tr.seqs, tr.digests = nil, nil
}

func removeTrace(list []*TxTrace, tr *TxTrace) []*TxTrace {
	for i, x := range list {
		if x == tr {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Completed returns the retired traces, oldest first.
func (t *TxTracer) Completed() []TxTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	if n > len(t.completed) {
		n = len(t.completed)
	}
	out := make([]TxTrace, 0, n)
	start := (t.next - n + len(t.completed)) % len(t.completed)
	for i := 0; i < n; i++ {
		out = append(out, *t.completed[(start+i)%len(t.completed)])
	}
	return out
}
