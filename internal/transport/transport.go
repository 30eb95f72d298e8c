// Package transport simulates the network substrate of §2.1: point-to-point,
// pairwise-authenticated, bi-directional channels between every pair of
// nodes. The simulation models per-link latency (intra-cluster vs
// cross-cluster vs client links), jitter, message drops, duplication,
// network partitions, and node crashes, so consensus protocols built on top
// exercise the same code paths they would on a real cluster.
//
// Delivery is asynchronous: messages may be delayed, dropped or duplicated,
// and messages on different links race (the safety assumption of §3), but one
// link delivers in the order it was sent on — what a TCP connection gives —
// and a message that is delivered is delivered intact and with an authentic
// sender identity.
//
// The queueing model, in the order a message meets it: the sender's core
// (ProcessingTime, shared with everything that node sends and receives), the
// shaped link's serialisation, propagation plus jitter, the per-link FIFO
// clamp, the receiver's core from the instant the message arrives, and the
// inbox with its bounded overflow. See Network and DESIGN.md "Transport".
package transport

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/types"
)

// Config describes the simulated network's behaviour.
type Config struct {
	// IntraClusterLatency is the one-way delay between two nodes in the
	// same cluster (nodes are co-located, §2.2).
	IntraClusterLatency time.Duration
	// CrossClusterLatency is the one-way delay between nodes of different
	// clusters.
	CrossClusterLatency time.Duration
	// ClientLatency is the one-way delay between a client and any replica.
	ClientLatency time.Duration
	// JitterFrac adds uniform jitter in [0, JitterFrac·latency) per message.
	JitterFrac float64
	// DropProb drops each message independently with this probability.
	DropProb float64
	// DupProb duplicates each delivered message with this probability.
	DupProb float64
	// Seed makes fault injection reproducible.
	Seed int64
	// InboxSize is the buffered capacity of each node's inbox. Messages
	// beyond it spill into a bounded per-node overflow queue drained in
	// arrival order, so saturation never silently loses or reorders the
	// traffic the network decided to deliver; only a node whose overflow
	// also fills (overflowFactor×InboxSize) starts dropping.
	InboxSize int
	// ProcessingTime models per-message service cost at each replica (CPU
	// serialization, marshalling, syscalls). Every message a replica sends
	// or receives occupies it for this long, so a node caps out at roughly
	// 1/ProcessingTime messages per second — the resource that makes a
	// single ordering group saturate and lets sharding scale throughput
	// with cluster count, as on the paper's real testbed. Zero disables the
	// model. Clients are not charged.
	ProcessingTime time.Duration
	// Shaping, when set, replaces the three scalar latencies above with a
	// per-link shape matrix (delay, bandwidth, loss per cluster pair — the
	// same structure the TCP fabric applies per peer link, so one topology
	// file drives both fabrics). JitterFrac still applies on top of shaped
	// delays; DropProb composes with per-link Loss.
	Shaping *Shaping
}

// DefaultConfig returns a LAN-like configuration suitable for benchmarks:
// sub-millisecond intra-cluster links and ~1ms cross-cluster links.
func DefaultConfig() Config {
	return Config{
		IntraClusterLatency: 100 * time.Microsecond,
		CrossClusterLatency: 200 * time.Microsecond,
		ClientLatency:       200 * time.Microsecond,
		JitterFrac:          0.2,
		InboxSize:           16384,
		ProcessingTime:      15 * time.Microsecond,
	}
}

// Locator maps a node to the cluster it belongs to, for latency selection.
// Clients (id.IsClient()) are not expected to be mapped.
type Locator func(types.NodeID) (types.ClusterID, bool)

// Stats aggregates message-level counters, used by tests to assert on the
// number of communication phases and by benchmarks to report network load.
type Stats struct {
	Sent      atomic.Int64
	Delivered atomic.Int64
	Dropped   atomic.Int64
	Bytes     atomic.Int64
}

// LinkStats aggregates per-destination counters: messages and bytes sent
// toward one node, drops on that path, and the cumulative simulated delay
// (processing + shaped serialization + propagation) the fabric scheduled.
// Counters are atomics; a snapshot read while traffic flows is approximate
// but race-free.
type LinkStats struct {
	Sent        atomic.Int64
	Delivered   atomic.Int64
	Dropped     atomic.Int64
	Bytes       atomic.Int64
	DelayMicros atomic.Int64 // total scheduled one-way delay, µs
}

// Network is the in-process message fabric. It is safe for concurrent use.
//
// Ownership and locking. Everything the fabric knows about one NodeID lives
// in that ID's endpoint, and everything about one directed link in a link
// hanging off the receiving endpoint; both are created on first use, never
// removed, and found through sync.Maps, so the per-message path takes no
// process-wide lock except the event queue's. Lock order is link.mu →
// {endpoint.mu, qMu}; the two inner locks are leaves and never held together.
type Network struct {
	cfg    Config
	locate Locator
	start  time.Time // event times are offsets from here (monotonic clock)

	endpoints sync.Map // types.NodeID → *endpoint
	closed    atomic.Bool
	done      chan struct{} // closed by Close; stops the dispatcher and drainers
	exited    chan struct{} // closed by the dispatcher as it returns

	// Event queue: a min-heap on (at, seq) drained by the dispatcher
	// goroutine (see Network.dispatcher and Network.await). kicked is set by
	// a push that becomes the new head, and by Close; asleep is the
	// dispatcher's announcement that it is about to sleep in sleeper, which
	// a kick then wakes.
	qMu     sync.Mutex
	queue   eventQueue
	seq     uint64
	kicked  atomic.Bool
	asleep  atomic.Bool
	sleeper waiter

	stats Stats
}

// endpoint is one registered (or merely addressed) NodeID: its inbox and
// overflow spill, its crash mark, the clock of its single message-processing
// core, the counters of traffic toward it, and the links arriving at it.
type endpoint struct {
	id    types.NodeID
	in    LinkStats
	links sync.Map // sender types.NodeID → *link

	mu       sync.Mutex
	inbox    chan *types.Envelope // nil until Register
	overflow []*types.Envelope    // messages that found the inbox full, in order
	draining bool                 // a drainOverflow goroutine is running
	crashed  bool
	// coreFree is when the node's core finishes the work it has accepted so
	// far. Sends are charged to it at send time and receives at arrival
	// time, so the node is one FIFO server of rate 1/ProcessingTime.
	coreFree time.Duration
}

// link is the directed channel src → dst. Its shape is resolved once, at
// first use: the topology and the Shaping matrix are fixed before New.
type link struct {
	src, dst *endpoint
	shape    LinkShape
	blocked  atomic.Bool // a Partition rule covers this link

	mu          sync.Mutex
	rng         rand.PCG      // seeded from (cfg.Seed, src, dst): one stream per link
	busy        time.Duration // when the shaped bandwidth has serialised everything sent so far
	lastArrival time.Duration // FIFO clamp: no message arrives before its predecessor
}

// overflowFactor sizes the per-node overflow queue relative to InboxSize;
// beyond InboxSize×overflowFactor backed-up messages the node is considered
// unrecoverable at current load and further traffic to it is dropped
// (counted in Stats.Dropped) rather than buffered without bound.
const overflowFactor = 4

// A head at most spinFloor away is yield-spun toward: a sleep that short
// would be mostly its own round trip through the kernel. A farther head is
// slept toward, to wakeLead short of it — about what the kernel overshoots
// by — and the rest is spun. DESIGN.md "How the dispatcher waits" has the
// measurements behind both.
const (
	spinFloor = 30 * time.Microsecond
	wakeLead  = 10 * time.Microsecond
)

// New creates a network with the given behaviour and topology. On Linux its
// dispatcher holds one file descriptor until Close; New panics if the process
// has none left to give it.
func New(cfg Config, locate Locator) *Network {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 16384
	}
	if cfg.Shaping == nil {
		// The three scalar latencies are a shape matrix with delays only.
		cfg.Shaping = &Shaping{
			Default: LinkShape{Delay: cfg.CrossClusterLatency},
			Intra:   LinkShape{Delay: cfg.IntraClusterLatency},
			Client:  LinkShape{Delay: cfg.ClientLatency},
		}
	}
	n := &Network{
		cfg:     cfg,
		locate:  locate,
		start:   time.Now(),
		done:    make(chan struct{}),
		exited:  make(chan struct{}),
		sleeper: newWaiter(),
	}
	go n.dispatcher()
	return n
}

// now is the fabric's clock: time since New.
func (n *Network) now() time.Duration { return time.Since(n.start) }

// endpoint returns id's endpoint, creating it on first use.
func (n *Network) endpoint(id types.NodeID) *endpoint {
	if e, ok := n.endpoints.Load(id); ok {
		return e.(*endpoint)
	}
	e, _ := n.endpoints.LoadOrStore(id, &endpoint{id: id})
	return e.(*endpoint)
}

// link returns the link from → to, creating it on first use.
func (n *Network) link(from, to types.NodeID) *link {
	dst := n.endpoint(to)
	if l, ok := dst.links.Load(from); ok {
		return l.(*link)
	}
	fresh := &link{src: n.endpoint(from), dst: dst, shape: n.shapeFor(from, to)}
	fresh.rng.Seed(uint64(n.cfg.Seed), uint64(from)<<32|uint64(to))
	l, _ := dst.links.LoadOrStore(from, fresh)
	return l.(*link)
}

// serve charges the endpoint's processing core for one message that is ready
// at `at`, returning when the core is done with it. Clients have no modelled
// core.
func (e *endpoint) serve(at, cost time.Duration) time.Duration {
	if cost <= 0 || e.id.IsClient() {
		return at
	}
	e.mu.Lock()
	if e.coreFree > at {
		at = e.coreFree
	}
	at += cost
	e.coreFree = at
	e.mu.Unlock()
	return at
}

// Stats returns the live counters.
func (n *Network) Stats() *Stats { return &n.stats }

// Link returns the live per-destination counters for traffic toward id,
// creating them on first use.
func (n *Network) Link(id types.NodeID) *LinkStats { return &n.endpoint(id).in }

// QueueDepth reports the number of messages buffered toward id: its inbox
// backlog plus any overflow spill. Zero for unregistered nodes.
func (n *Network) QueueDepth(id types.NodeID) int {
	e := n.endpoint(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inbox) + len(e.overflow)
}

// Register creates (or returns) the inbox for id. Each node and client calls
// this once before participating.
func (n *Network) Register(id types.NodeID) <-chan *types.Envelope {
	e := n.endpoint(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inbox == nil {
		e.inbox = make(chan *types.Envelope, n.cfg.InboxSize)
	}
	return e.inbox
}

// Crash marks id as stopped: it receives no further messages until Restart.
// This models the crash failure of §2.1.
func (n *Network) Crash(id types.NodeID) { n.setCrashed(id, true) }

// Restart clears the crashed mark for id.
func (n *Network) Restart(id types.NodeID) { n.setCrashed(id, false) }

func (n *Network) setCrashed(id types.NodeID, crashed bool) {
	e := n.endpoint(id)
	e.mu.Lock()
	e.crashed = crashed
	e.mu.Unlock()
}

// Partition blocks delivery in both directions between every pair drawn from
// a and b. Heal pairwise with Heal, or wholesale with HealPartition.
func (n *Network) Partition(a, b []types.NodeID) { n.setBlocked(a, b, true) }

// Heal removes the partition rules between every pair drawn from a and b,
// leaving any other partitions in place — so overlapping cuts installed by
// separate Partition calls can be lifted independently.
func (n *Network) Heal(a, b []types.NodeID) { n.setBlocked(a, b, false) }

func (n *Network) setBlocked(a, b []types.NodeID, blocked bool) {
	for _, x := range a {
		for _, y := range b {
			n.link(x, y).blocked.Store(blocked)
			n.link(y, x).blocked.Store(blocked)
		}
	}
}

// HealPartition removes all partition rules.
func (n *Network) HealPartition() {
	n.endpoints.Range(func(_, e any) bool {
		e.(*endpoint).links.Range(func(_, l any) bool {
			l.(*link).blocked.Store(false)
			return true
		})
		return true
	})
}

// Close tears the network down; subsequent sends are dropped. It returns once
// the dispatcher has exited and released its wait.
func (n *Network) Close() {
	if n.closed.CompareAndSwap(false, true) {
		close(n.done)
		n.qMu.Lock()
		n.kickLocked()
		n.qMu.Unlock()
	}
	<-n.exited
}

// shapeFor resolves the shape of the link from → to in the Shaping matrix.
func (n *Network) shapeFor(from, to types.NodeID) LinkShape {
	s := n.cfg.Shaping
	if from.IsClient() || to.IsClient() {
		return s.Client
	}
	cf, okF := n.locate(from)
	ct, okT := n.locate(to)
	if !okF || !okT {
		return s.Default
	}
	return s.For(cf, ct)
}

// float64 draws from the link's stream, uniform in [0, 1). Caller holds l.mu.
func (l *link) float64() float64 { return float64(l.rng.Uint64()>>11) / (1 << 53) }

// roll returns true with probability p. Caller holds l.mu.
func (l *link) roll(p float64) bool { return p > 0 && l.float64() < p }

// propagation draws one one-way delay: the link's latency plus uniform
// jitter in [0, jitterFrac·latency). Caller holds l.mu.
func (l *link) propagation(jitterFrac float64) time.Duration {
	d := l.shape.Delay
	if jitterFrac > 0 && d > 0 {
		d += time.Duration(float64(d) * l.float64() * jitterFrac)
	}
	return d
}

// wireBytes approximates the frame size of env on a real link: payload,
// signature, and the fixed header/tag overhead of the TCP wire format.
func wireBytes(env *types.Envelope) int {
	return len(env.Payload) + len(env.Sig) + 48
}

// Send queues env for delivery to `to`. Drops, duplication, and latency are
// applied per the config; partitioned or crashed destinations receive
// nothing. Send never blocks the caller.
//
// A message passes, in order: the sender's core, the shaped link's
// serialisation, propagation with jitter, the per-link FIFO clamp — all
// settled here, at send time — and then, when the dispatcher reaches its
// arrival instant, the receiver's core and the inbox.
func (n *Network) Send(to types.NodeID, env *types.Envelope) {
	l := n.link(env.From, to)
	in := &l.dst.in
	size := int64(len(env.Payload))
	n.stats.Sent.Add(1)
	n.stats.Bytes.Add(size)
	in.Sent.Add(1)
	in.Bytes.Add(size)

	l.mu.Lock()
	if n.closed.Load() || l.blocked.Load() || l.roll(n.cfg.DropProb) || l.roll(l.shape.Loss) {
		l.mu.Unlock()
		n.stats.Dropped.Add(1)
		in.Dropped.Add(1)
		return
	}
	now := n.now()
	sent := l.src.serve(now, n.cfg.ProcessingTime)
	if tx := l.shape.TxTime(wireBytes(env)); tx > 0 {
		if l.busy > sent {
			sent = l.busy
		}
		sent += tx
		l.busy = sent
	}
	arrival := sent + l.propagation(n.cfg.JitterFrac)
	// Jitter must not reorder a link: TCP would not, and the engines assume
	// one peer's messages arrive in the order it sent them.
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival
	// A duplicate is a stray retransmission, exempt from link ordering.
	dupAt := time.Duration(-1)
	if l.roll(n.cfg.DupProb) {
		dupAt = arrival + l.propagation(n.cfg.JitterFrac)
	}
	// Pushed under l.mu so that equal arrival instants keep link order by
	// sequence number.
	n.qMu.Lock()
	n.pushLocked(event{at: arrival, dst: l.dst, env: env})
	if dupAt >= 0 {
		n.pushLocked(event{at: dupAt, dst: l.dst, env: env})
	}
	n.qMu.Unlock()
	l.mu.Unlock()

	in.Delivered.Add(1)
	in.DelayMicros.Add((arrival - now).Microseconds())
}

// event is one message on its way to dst: first an arrival at the receiver
// (at = arrival instant), then, once the receiver's core has been charged, a
// delivery (served, at = when the core finishes it).
type event struct {
	at     time.Duration
	seq    uint64 // push order, the tie-break between equal instants
	dst    *endpoint
	env    *types.Envelope
	served bool
}

// eventQueue is a binary min-heap on (at, seq). Hand-rolled over the typed
// slice: container/heap would box every event into an interface.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release the envelope
	h = h[:last]
	*q = h
	for i := 0; ; {
		min := i
		if c := 2*i + 1; c < last && h.less(c, min) {
			min = c
		}
		if c := 2*i + 2; c < last && h.less(c, min) {
			min = c
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// pushLocked queues ev and kicks the dispatcher if ev is the new head (any
// other push leaves the instant the dispatcher is waiting for unchanged).
// Caller holds qMu.
func (n *Network) pushLocked(ev event) {
	n.seq++
	ev.seq = n.seq
	n.queue.push(ev)
	if n.queue[0].seq == ev.seq {
		n.kickLocked()
	}
}

// kickLocked tells the dispatcher that the instant it waits for has changed,
// and wakes it if it has announced a sleep. The flag is set before the
// announcement is read and await announces before it reads the flag, so one
// of the two sees the other: no kick is lost. Only the kick that clears the
// announcement writes, so a sleep is woken once. Caller holds qMu, which also
// keeps the dispatcher from closing the waiter under the write.
func (n *Network) kickLocked() {
	n.kicked.Store(true)
	if n.asleep.CompareAndSwap(true, false) {
		n.sleeper.wake()
	}
}

// dispatcher serves the event queue in (time, sequence) order. Each pass
// takes everything due at one reading of the clock. An arrival is charged to
// the receiver's core at its arrival instant — start = max(arrival,
// coreFree), done = start + ProcessingTime — and re-queued for done, however
// late the dispatcher is running; a served event is delivered. A receiver's
// done instants strictly increase in the order its arrivals are served, and
// only the queue turns a done instant into a delivery, so its messages reach
// the inbox in arrival order. A receiver with no modelled core (a client, or
// ProcessingTime zero) has no second stage: its arrivals are delivered as
// they pop.
func (n *Network) dispatcher() {
	defer close(n.exited)
	var due, again []event
	for {
		n.qMu.Lock()
		for _, ev := range again {
			n.queue.push(ev) // keeps its seq; no kick: this goroutine is the waiter
		}
		clear(again) // release the envelopes
		again = again[:0]
		n.kicked.Store(false) // this reading of the queue sees every push so far
		now := n.now()
		for len(n.queue) > 0 && n.queue[0].at <= now {
			due = append(due, n.queue.pop())
		}
		next := time.Duration(-1)
		if len(n.queue) > 0 {
			next = n.queue[0].at
		}
		n.qMu.Unlock()

		for _, ev := range due {
			if !ev.served {
				if done := ev.dst.serve(ev.at, n.cfg.ProcessingTime); done > ev.at {
					ev.dst.in.DelayMicros.Add((done - ev.at).Microseconds())
					ev.at, ev.served = done, true
					again = append(again, ev)
					continue
				}
			}
			n.deliver(ev.dst, ev.env)
		}
		clear(due) // release the envelopes
		due = due[:0]
		if len(again) > 0 {
			continue
		}
		if !n.await(next) {
			break
		}
	}
	n.qMu.Lock() // no kick is mid-write: asleep stays false from here on
	n.sleeper.close()
	n.qMu.Unlock()
}

// await blocks until the event at next (negative: the queue was empty) is
// due or a kick has replaced the head, and reports false once the network is
// closed. A head within spinFloor is yield-spun toward; a farther one (or an
// empty queue) is slept toward in sleeper, to wakeLead short of it, under an
// announcement that lets a kick wake the sleep. See DESIGN.md "How the
// dispatcher waits".
func (n *Network) await(next time.Duration) bool {
	yielded := false
	for !n.kicked.Load() && !n.closed.Load() {
		wait := time.Duration(-1)
		if next >= 0 {
			if wait = next - n.now(); wait <= 0 {
				break
			}
			if wait <= spinFloor {
				runtime.Gosched()
				continue
			}
			wait -= wakeLead
		}
		if !yielded {
			// This pass's deliveries may have readied consumers onto this P,
			// and a thread asleep in the kernel keeps its P: let them run.
			runtime.Gosched()
			yielded = true
			continue
		}
		n.asleep.Store(true)
		if !n.kicked.Load() {
			n.sleeper.sleep(wait)
		}
		n.asleep.Store(false)
	}
	return !n.closed.Load()
}

// deliver hands env to dst's inbox, or to its overflow queue when the inbox
// is full or a backlog is still draining.
func (n *Network) deliver(dst *endpoint, env *types.Envelope) {
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.inbox == nil || dst.crashed || n.closed.Load() {
		n.stats.Dropped.Add(1)
		return
	}
	if dst.draining || len(dst.overflow) > 0 {
		// The node is backed up (queued messages, or the drainer still has
		// one in flight): append behind them so delivery order is
		// preserved while the drainer catches up. Checking draining
		// matters — the drainer pops a message before sending it, so an
		// empty queue alone does not mean the backlog has fully landed.
		n.spillLocked(dst, env)
		return
	}
	select {
	case dst.inbox <- env:
		n.stats.Delivered.Add(1)
	default:
		// Inbox full: spill into the bounded per-node overflow queue; a
		// single drainer goroutine per node feeds it into the inbox in
		// order, so the dispatcher never blocks and saturation cannot
		// spawn one goroutine per overflowing message.
		n.spillLocked(dst, env)
	}
}

// spillLocked enqueues env on dst's overflow queue (dropping when the bound
// is hit) and ensures a drainer goroutine is running. Caller holds dst.mu.
func (n *Network) spillLocked(dst *endpoint, env *types.Envelope) {
	if len(dst.overflow) >= n.cfg.InboxSize*overflowFactor {
		n.stats.Dropped.Add(1)
		return
	}
	dst.overflow = append(dst.overflow, env)
	if !dst.draining {
		dst.draining = true
		go n.drainOverflow(dst)
	}
}

// drainOverflow pushes dst's backed-up messages into its inbox in order,
// exiting when the queue empties or the network shuts down.
func (n *Network) drainOverflow(dst *endpoint) {
	for {
		dst.mu.Lock()
		if len(dst.overflow) == 0 {
			dst.draining = false
			dst.overflow = nil
			dst.mu.Unlock()
			return
		}
		env := dst.overflow[0]
		dst.overflow = dst.overflow[1:]
		dst.mu.Unlock()
		select {
		case dst.inbox <- env:
			n.stats.Delivered.Add(1)
		case <-n.done:
			return
		}
	}
}

// Multicast sends env to every destination in to (excluding none; callers
// decide whether to include themselves).
func (n *Network) Multicast(to []types.NodeID, env *types.Envelope) {
	for _, id := range to {
		n.Send(id, env)
	}
}
