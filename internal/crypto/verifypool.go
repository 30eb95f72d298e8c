package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/obs"
	"sharper/internal/types"
)

// DefaultVerifyWindow is the batch-verification window used when a node does
// not configure one: up to this many already-queued envelopes are verified
// as one batch.
const DefaultVerifyWindow = 16

// VerifyPool verifies envelope signatures on a bounded worker pool ahead of
// a node's single-threaded consensus loop. Envelopes are read from the
// node's inbox, verified concurrently (MAC vectors or ed25519, whichever
// Verifier the deployment uses), marked with their verdict
// (types.Envelope.MarkAuth), and emitted on Out in exactly the order they
// arrived — so per-sender FIFO delivery, which the protocols rely on, is
// preserved while the signature CPU cost moves off the event loop.
//
// # Turns and tickets
//
// The workers take turns at the inbox. One token circulates on turn; the
// worker that holds it waits for the next envelope, gathers whatever else the
// inbox already holds — up to the window, never waiting, so an idle link adds
// zero latency —, and passes the token on with the next ticket before it
// verifies. Windows are therefore drawn in arrival order and verified in
// parallel. A ticket names a slot in a small ring, and the slot holds the
// window until it has gone out, which happens in ticket order without any
// worker waiting for another: a worker that finishes a window whose
// predecessor is still being verified leaves it in its slot and takes the
// next turn, and whoever emits the predecessor emits it too (see slot). An
// envelope crosses two channels (inbox, Out); windows and argument slices are
// reused, so a warm pool allocates nothing.
//
// # Verdicts
//
// A worker verifies its window with one VerifyBatch call when the Verifier
// implements BatchVerifier and window > 1 (pooled per-sender MAC sessions, or
// an aggregate signature equation in a batched backend), a window of one
// included. A window that fails the aggregate check is bisected, each half
// re-verified, down to single envelopes, so every envelope still ends up with
// its own exact verdict. That bisection is what keeps fraud proofs sound
// — a forged signature in a batch of honest traffic is pinned to precisely
// the envelope that carried it, and only that envelope is marked invalid. An
// envelope with no signature at all (a client's submit) is unauthenticated by
// definition: it is marked invalid without joining the aggregate, so it
// cannot fail the honest votes it shares a window with.
//
// # Backpressure and shutdown
//
// Out is the pool's only queue: when the consumer stalls it fills, the worker
// emitting blocks on it, the others fill the ring behind it (two windows per
// worker) and block in turn, and the fabric's inbox fills exactly as it would
// without the pool. No mutex is involved, and every blocking point also waits
// on the stop channel, so Close returns promptly from any state.
//
// The engines consult the cached verdict through Envelope.Auth and only
// fall back to inline verification for envelopes that never passed through
// a pool (tests stepping engines directly, recovery paths).
type VerifyPool struct {
	verifier Verifier
	batch    BatchVerifier // nil → per-signature verification
	window   int
	metrics  atomic.Pointer[obs.VerifyMetrics]

	in  <-chan *types.Envelope
	out chan *types.Envelope

	// turn carries the one inbox token; its value is the ticket the next
	// window draws, an index into slots.
	turn chan int
	// free holds one token per slot not in use. Slots are drawn and released
	// in ticket order, so a token in hand means the slot the turn names is
	// the one that was released.
	free  chan struct{}
	slots []slot

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// slot is one window on its way through the pool. Its state settles, without
// a lock, who sends the window to Out: the worker that verified it, if the
// window before it has already gone out (slotNext), or else the worker that
// sends that window, which finds this one waiting (slotVerified). Each side
// makes one compare-and-swap from slotPending and the loser of the race does
// the emitting, so exactly one of them does.
type slot struct {
	envs  []*types.Envelope
	state atomic.Uint32
}

const (
	slotPending  uint32 = iota // free, or its window is being gathered or verified
	slotVerified               // verdicts marked, an earlier window still to go out
	slotNext                   // every earlier window has gone out
)

// NewVerifyPool starts a pool that drains `in`, verifies with v, and emits
// verified envelopes on Out in arrival order. workers ≤ 0 picks
// min(GOMAXPROCS, 4); depth ≤ 0 picks 256, the capacity of Out and with it
// the backpressure bound (see VerifyPool). window ≤ 0 picks
// DefaultVerifyWindow; window 1 verifies strictly per signature with
// Verifier.Verify; larger windows use VerifyBatch when v implements
// BatchVerifier. The workers are the pool's only goroutines. Close the pool
// after the consumer stops.
func NewVerifyPool(v Verifier, in <-chan *types.Envelope, workers, depth, window int) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	if depth <= 0 {
		depth = 256
	}
	if window <= 0 {
		window = DefaultVerifyWindow
	}
	// Two slots per worker: one being verified, one verified and waiting for
	// an earlier window, so a slow window holds up Out but not the workers.
	ring := 2 * workers
	p := &VerifyPool{
		verifier: v,
		window:   window,
		in:       in,
		out:      make(chan *types.Envelope, depth),
		turn:     make(chan int, 1),
		free:     make(chan struct{}, ring),
		slots:    make([]slot, ring),
		stop:     make(chan struct{}),
	}
	if bv, ok := v.(BatchVerifier); ok && window > 1 {
		p.batch = bv
	}
	for i := range p.slots {
		p.slots[i].envs = make([]*types.Envelope, 0, window)
		p.free <- struct{}{}
	}
	p.slots[0].state.Store(slotNext)
	p.turn <- 0
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Out is the ordered stream of envelopes with their verdicts marked.
func (p *VerifyPool) Out() <-chan *types.Envelope { return p.out }

// SetMetrics attaches pool instrumentation (window count and occupancy,
// bisection events, per-window verify latency). A nil bundle (or never
// calling) leaves the pool unobserved.
func (p *VerifyPool) SetMetrics(m *obs.VerifyMetrics) { p.metrics.Store(m) }

// Close stops every pool goroutine. Envelopes still in flight are dropped
// (the pool only closes after its consumer has stopped dispatching).
func (p *VerifyPool) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// worker runs the turn/ticket cycle described on VerifyPool. turn and free
// have a buffer slot for every token that exists, so returning a token never
// blocks; every receive that can block also watches stop.
func (p *VerifyPool) worker() {
	defer p.wg.Done()
	var scratch batchScratch
	for {
		var ticket int
		select {
		case ticket = <-p.turn:
		case <-p.stop:
			return
		}
		select {
		case <-p.free:
		case <-p.stop:
			return
		}
		s := &p.slots[ticket]
		select {
		case env := <-p.in:
			s.envs = append(s.envs, env)
		case <-p.stop:
			return
		}
	gather:
		for len(s.envs) < p.window {
			select {
			case env := <-p.in:
				s.envs = append(s.envs, env)
			default:
				break gather
			}
		}
		p.turn <- (ticket + 1) % len(p.slots)

		if m := p.metrics.Load(); m != nil {
			start := time.Now()
			p.verifyWindow(s.envs, &scratch)
			m.Windows.Inc()
			m.Envelopes.Add(uint64(len(s.envs)))
			m.Occupancy.Observe(uint64(len(s.envs)))
			m.VerifyMicros.Observe(uint64(time.Since(start).Microseconds()))
		} else {
			p.verifyWindow(s.envs, &scratch)
		}

		if s.state.CompareAndSwap(slotPending, slotVerified) {
			continue // an earlier window is still out; its emitter sends this one
		}
		// This window is next, and after it every window already verified.
		for {
			for _, env := range s.envs {
				select {
				case p.out <- env:
				case <-p.stop:
					return
				}
			}
			s.envs = s.envs[:0]
			s.state.Store(slotPending)
			p.free <- struct{}{}
			ticket = (ticket + 1) % len(p.slots)
			s = &p.slots[ticket]
			if s.state.CompareAndSwap(slotPending, slotNext) {
				break // not verified yet (or not drawn): its verifier sends it
			}
		}
	}
}

// batchScratch is one worker's reusable argument slices for VerifyBatch: the
// signed envelopes of the window under verification, column by column.
type batchScratch struct {
	envs     []*types.Envelope
	from     []types.NodeID
	payloads [][]byte
	sigs     [][]byte
}

// load fills the columns from the signed members of envs and gives the
// unsigned ones their verdict on the spot: no signature, not authenticated.
func (s *batchScratch) load(envs []*types.Envelope) {
	s.envs, s.from, s.payloads, s.sigs = s.envs[:0], s.from[:0], s.payloads[:0], s.sigs[:0]
	for _, e := range envs {
		if len(e.Sig) == 0 {
			e.MarkAuth(false)
			continue
		}
		s.envs = append(s.envs, e)
		s.from = append(s.from, e.From)
		s.payloads = append(s.payloads, e.Payload)
		s.sigs = append(s.sigs, e.Sig)
	}
}

// verifyWindow marks a verdict on every envelope of the window.
func (p *VerifyPool) verifyWindow(envs []*types.Envelope, scratch *batchScratch) {
	scratch.load(envs)
	if len(scratch.envs) > 0 {
		p.verifyRange(scratch, 0, len(scratch.envs))
	}
}

// verifyRange settles the loaded envelopes [lo, hi): one aggregate
// VerifyBatch when the whole range is clean (the overwhelmingly common case),
// bisection when it is not. A range of one needs no bisection — the aggregate
// answer for a single envelope is its verdict. Without a BatchVerifier every
// envelope is checked on its own.
func (p *VerifyPool) verifyRange(s *batchScratch, lo, hi int) {
	if p.batch == nil {
		for i := lo; i < hi; i++ {
			s.envs[i].MarkAuth(p.verifier.Verify(s.from[i], s.payloads[i], s.sigs[i]))
		}
		return
	}
	ok := p.batch.VerifyBatch(s.from[lo:hi], s.payloads[lo:hi], s.sigs[lo:hi])
	if ok || hi-lo == 1 {
		for _, e := range s.envs[lo:hi] {
			e.MarkAuth(ok)
		}
		return
	}
	if m := p.metrics.Load(); m != nil {
		m.Bisects.Inc()
	}
	mid := lo + (hi-lo)/2
	p.verifyRange(s, lo, mid)
	p.verifyRange(s, mid, hi)
}
