// Package tcpnet is the real-network implementation of transport.Fabric:
// length-prefixed frames over TCP connections, so a SharPer deployment can
// run as separate OS processes on loopback or a LAN (§5 runs replicas as
// networked processes; the simulated fabric in internal/transport remains
// the default for tests and benchmarks).
//
// # Wire format
//
// Every frame is
//
//	uint32 LE  frameLen            (length of everything below)
//	uint32 LE  to                  (destination NodeID, or helloDst)
//	           envelope            (types.Envelope canonical encoding)
//	[32]byte   HMAC-SHA256 tag     (over to ‖ envelope, keyed by the
//	                                deployment's shared wire secret)
//
// Frames whose tag does not verify are discarded and the connection is
// dropped: an attacker on the network cannot inject or alter protocol
// messages, which restores the pairwise-authenticated-channel assumption of
// §2.1 that the simulated fabric gets for free. Protocol-level signatures
// (internal/crypto MAC vectors or ed25519) ride inside the envelope and are
// unchanged.
//
// # Hot path
//
// Send never serializes: it enqueues the envelope pointer on the
// destination link's bounded queue. Each link's writer goroutine drains the
// queue in batches, assembling frames into a reused buffer (HMAC computed
// in place by a pooled authenticator, zero allocations in steady state) and
// flushing the whole batch through one buffered write per wakeup — so a
// burst of N consensus messages costs one syscall, not N. The read side
// buffers the socket the same way.
//
// # Routing
//
// One Net instance typically hosts a single replica (its process) or a set
// of client endpoints (a driver process). Send routes by destination:
// locally registered inboxes deliver directly; replica IDs named in the
// static peer table go out over a per-peer connection with its own bounded
// outbound queue, reconnect, and exponential backoff; anything else (client
// IDs, which are dynamic) routes over the connection the destination was
// last seen on. Connections advertise their local inboxes with small hello
// frames on establishment, so replies to clients flow back over the
// client's own connections without the clients appearing in any topology
// file.
//
// # Link shaping
//
// Config.Shape attaches a netem-style discipline to each outbound peer
// link: propagation delay, serialization bandwidth, and random loss
// (transport.LinkShape — the same type the simulated fabric's shaping
// matrix uses, so one topology file drives both). Shaping happens in the
// link's writer goroutine after batch assembly: drained frames pass a
// per-frame loss gate, serialize through a virtual busy clock at the link
// bandwidth, then sit on a FIFO delay line until due — assembly is never
// blocked by a sleeping link, and a shaped link still coalesces exactly
// like an unshaped one. The delay line is bounded (tail drop beyond it,
// like a congested router queue). Connection establishment traffic (hellos,
// carried retransmissions) is written unshaped: shaping emulates the
// steady-state path, not the dial handshake.
//
// # Liveness
//
// Every outbound peer link writes a small hello probe each
// KeepaliveInterval. Accepted connections arm a read deadline of
// IdleTimeout — a partitioned or wedged dialer stops refreshing it, the
// read fails, and the connection is reaped, handing the link back to the
// dialer's reconnect/backoff loop. Only accepted connections are reaped:
// an outbound link to a quiet peer legitimately reads nothing (replies
// travel over the peer's own dialed connection), and every dialer in a
// SharPer deployment is a tcpnet fabric that probes. WriteTimeout bounds
// each batch write so a peer that stops reading cannot pin a writer.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/crypto"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// helloDst is the reserved destination of route-advertisement frames. It is
// far outside both the replica ID range (dense from 0) and the client range
// (from types.ClientIDBase).
const helloDst = ^uint32(0)

// maxCoalesce bounds how many bytes one writer wakeup assembles before
// flushing, so a deep queue cannot grow the batch buffer without bound.
const maxCoalesce = 256 << 10

// sockBufSize sizes the per-connection buffered reader and writer.
const sockBufSize = 64 << 10

// Config describes one process's attachment to the wire.
type Config struct {
	// Self is the primary identity this fabric hosts, used in error text.
	// Dial-only fabrics (client drivers) may leave it zero.
	Self types.NodeID
	// ListenAddr is the TCP address to accept peer connections on
	// ("host:port"; ":0" picks a free port — read it back with Addr).
	// Empty means dial-only: the fabric originates connections but accepts
	// none, which is all a client driver needs.
	ListenAddr string
	// Listener, when non-nil, is used instead of ListenAddr (ownership
	// transfers to the fabric). Loopback uses this to fix every node's
	// address before any fabric starts.
	Listener net.Listener
	// Peers maps every replica to its address. Destinations outside the map
	// are assumed to be clients and routed over learned return routes.
	Peers map[types.NodeID]string
	// Secret keys the per-frame HMAC; every process of the deployment must
	// share it (crypto.WireKey derives it from a secret string).
	Secret []byte
	// InboxSize is the buffered capacity of each local inbox (default 16384).
	InboxSize int
	// QueueSize bounds each per-peer outbound queue; frames beyond it are
	// dropped, like the simulated fabric under saturation (default 16384).
	QueueSize int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// MaxFrame caps accepted frame sizes (default 4 MiB); oversized length
	// prefixes poison the connection, which is dropped and redialed.
	MaxFrame int
	// Shape applies netem-style shaping (delay, bandwidth, loss) to the
	// outbound link toward each listed peer; unlisted peers are unshaped.
	// core.Deployment builds this map from a topology-level shaping matrix
	// (transport.Shaping) and each peer's cluster.
	Shape map[types.NodeID]transport.LinkShape
	// ClientShape, when non-nil and non-zero, shapes return-route traffic
	// (replies to clients) on every accepted connection.
	ClientShape *transport.LinkShape
	// ShapeSeed seeds the per-link loss generators, so shaped runs are
	// reproducible.
	ShapeSeed int64
	// KeepaliveInterval is how often each outbound peer link writes a hello
	// probe, keeping the acceptor's idle timer refreshed across quiet
	// periods (default 1s; negative disables probing).
	KeepaliveInterval time.Duration
	// IdleTimeout reaps an accepted connection that delivered no bytes for
	// this long — its dialer is partitioned or wedged — handing the link
	// back to the dialer's reconnect/backoff loop (default 5× the keepalive
	// interval; negative disables).
	IdleTimeout time.Duration
	// WriteTimeout bounds each batch write, so a peer that stops reading
	// cannot pin a writer goroutine forever (default 10s; negative
	// disables).
	WriteTimeout time.Duration
}

func (c *Config) fillDefaults() {
	if c.InboxSize <= 0 {
		c.InboxSize = 16384
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 16384
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 4 << 20
	}
	if c.KeepaliveInterval == 0 {
		c.KeepaliveInterval = time.Second
	} else if c.KeepaliveInterval < 0 {
		c.KeepaliveInterval = 0
	}
	if c.IdleTimeout == 0 && c.KeepaliveInterval > 0 {
		c.IdleTimeout = 5 * c.KeepaliveInterval
	} else if c.IdleTimeout < 0 {
		c.IdleTimeout = 0
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	} else if c.WriteTimeout < 0 {
		c.WriteTimeout = 0
	}
}

// outFrame is one queued outbound message: the destination that goes into
// the frame header plus the envelope, serialized by the link's writer
// goroutine (not by the sender) so frame assembly reuses one buffer per
// link instead of allocating per message.
type outFrame struct {
	to  uint32
	env *types.Envelope
}

// Net is the TCP fabric. It is safe for concurrent use.
type Net struct {
	cfg  Config
	ln   net.Listener
	auth *crypto.FrameAuth

	mu      sync.RWMutex
	inboxes map[types.NodeID]chan *types.Envelope
	routes  map[types.NodeID]*wireConn // learned client return routes
	conns   map[*wireConn]struct{}     // every live connection, for shutdown
	peers   map[types.NodeID]*peer
	closed  bool

	stats   transport.Stats
	connSeq atomic.Int64 // salts per-connection loss generators
	done    chan struct{}
	wg      sync.WaitGroup
}

var _ transport.Fabric = (*Net)(nil)

// New creates a fabric and, when a listen address (or listener) is
// configured, starts accepting connections immediately.
func New(cfg Config) (*Net, error) {
	cfg.fillDefaults()
	if len(cfg.Secret) == 0 {
		return nil, fmt.Errorf("tcpnet: empty wire secret")
	}
	n := &Net{
		cfg:     cfg,
		auth:    crypto.NewFrameAuth(cfg.Secret),
		inboxes: make(map[types.NodeID]chan *types.Envelope),
		routes:  make(map[types.NodeID]*wireConn),
		conns:   make(map[*wireConn]struct{}),
		peers:   make(map[types.NodeID]*peer),
		done:    make(chan struct{}),
	}
	if cfg.Listener != nil {
		n.ln = cfg.Listener
	} else if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.ListenAddr, err)
		}
		n.ln = ln
	}
	if n.ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// Addr returns the fabric's accept address ("" for dial-only fabrics).
func (n *Net) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Stats returns the live counters.
func (n *Net) Stats() *transport.Stats { return &n.stats }

// PeerLinkStats is a point-in-time snapshot of one outbound peer link.
type PeerLinkStats struct {
	Peer         types.NodeID
	Sent         int64 // frames enqueued toward the peer
	Dropped      int64 // frames lost to queue overflow on this link
	Bytes        int64 // payload bytes enqueued
	Reconnects   int64 // successful dials beyond the first
	ShapedMicros int64 // cumulative emulated delay (serialization + propagation), µs
	QueueDepth   int   // frames waiting in the outbound queue right now
}

// LinkStats snapshots every established outbound peer link, sorted by peer.
func (n *Net) LinkStats() []PeerLinkStats {
	n.mu.RLock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.RUnlock()
	out := make([]PeerLinkStats, 0, len(peers))
	for _, p := range peers {
		rc := p.connects.Load() - 1
		if rc < 0 {
			rc = 0
		}
		out = append(out, PeerLinkStats{
			Peer:         p.id,
			Sent:         p.sent.Load(),
			Dropped:      p.dropped.Load(),
			Bytes:        p.bytes.Load(),
			Reconnects:   rc,
			ShapedMicros: p.shapedMicros.Load(),
			QueueDepth:   len(p.ch),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Register creates (or returns) the local inbox for id and advertises it to
// every known peer, so replicas can route replies back here. Advertisements
// travel through the same per-peer queues as ordinary frames, so on any one
// connection the hello always precedes traffic the new endpoint sends later.
func (n *Net) Register(id types.NodeID) <-chan *types.Envelope {
	n.mu.Lock()
	if ch, ok := n.inboxes[id]; ok {
		n.mu.Unlock()
		return ch
	}
	ch := make(chan *types.Envelope, n.cfg.InboxSize)
	n.inboxes[id] = ch
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	hello := outFrame{to: helloDst, env: &types.Envelope{From: id}}
	for _, p := range peers {
		p.enqueue(hello, &n.stats)
	}
	return ch
}

// Send routes env toward `to`: local inbox, static peer link, or learned
// return route, in that order. Send never blocks and never serializes; the
// link's writer goroutine encodes. Undeliverable or over-pressure frames
// are dropped and counted.
func (n *Net) Send(to types.NodeID, env *types.Envelope) {
	n.stats.Sent.Add(1)
	n.stats.Bytes.Add(int64(len(env.Payload)))

	n.mu.RLock()
	closed := n.closed
	local, isLocal := n.inboxes[to]
	route := n.routes[to]
	n.mu.RUnlock()
	if closed {
		n.stats.Dropped.Add(1)
		return
	}
	if isLocal {
		select {
		case local <- env:
			n.stats.Delivered.Add(1)
		default:
			n.stats.Dropped.Add(1)
		}
		return
	}
	if _, ok := n.cfg.Peers[to]; ok {
		p := n.peerFor(to)
		p.sent.Add(1)
		p.bytes.Add(int64(len(env.Payload)))
		p.enqueue(outFrame{to: uint32(to), env: env}, &n.stats)
		return
	}
	if route != nil {
		route.enqueue(outFrame{to: uint32(to), env: env}, &n.stats)
		return
	}
	n.stats.Dropped.Add(1)
}

// Multicast sends env to every destination in to.
func (n *Net) Multicast(to []types.NodeID, env *types.Envelope) {
	for _, id := range to {
		n.Send(id, env)
	}
}

// ConnectAll eagerly establishes a connection to every peer in the table,
// waiting up to timeout for the set to come up (and for each connection's
// hello advertisements to be written). It returns an error naming the peers
// still unreachable; the fabric keeps redialing those in the background, so
// a partial failure is not fatal. Client drivers call this before issuing
// load so replies routed by replicas they never dialed directly still find a
// return path.
func (n *Net) ConnectAll(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	waiting := make(map[types.NodeID]*peer, len(n.cfg.Peers))
	for id := range n.cfg.Peers {
		waiting[id] = n.peerFor(id)
	}
	var unreachable []types.NodeID
	for id, p := range waiting {
		remain := time.Until(deadline)
		if remain < 0 {
			remain = 0
		}
		select {
		case <-p.ready:
		case <-n.done:
			return fmt.Errorf("tcpnet: fabric closed while connecting")
		case <-time.After(remain):
			unreachable = append(unreachable, id)
		}
	}
	if len(unreachable) > 0 {
		return fmt.Errorf("tcpnet: %d peer(s) unreachable after %s: %v", len(unreachable), timeout, unreachable)
	}
	return nil
}

// Close tears the fabric down: the listener stops, every connection closes,
// all goroutines exit, and subsequent sends are dropped.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := make([]*wireConn, 0, len(n.conns))
	for wc := range n.conns {
		conns = append(conns, wc)
	}
	n.mu.Unlock()
	close(n.done)
	if n.ln != nil {
		n.ln.Close()
	}
	for _, wc := range conns {
		wc.close()
	}
	n.wg.Wait()
}

// appendFrame assembles one complete length-prefixed, authenticated wire
// frame for env into dst and returns the extended slice. The HMAC runs over
// the frame bytes in place, so steady-state frame assembly into a reused
// buffer does not allocate. sess is the calling goroutine's frame session
// (rolling keyed HMAC state, no pool round-trip per frame); nil falls back
// to the fabric's shared pooled authenticator.
func (n *Net) appendFrame(dst []byte, to uint32, env *types.Envelope, sess *crypto.FrameSession) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = binary.LittleEndian.AppendUint32(dst, to)
	dst = env.Encode(dst)
	if sess != nil {
		dst = sess.AppendTag(dst, dst[start+4:])
	} else {
		dst = n.auth.AppendTag(dst, dst[start+4:])
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// helloEnvs returns one advertisement per locally registered inbox.
func (n *Net) helloEnvs() []outFrame {
	n.mu.RLock()
	out := make([]outFrame, 0, len(n.inboxes))
	for id := range n.inboxes {
		out = append(out, outFrame{to: helloDst, env: &types.Envelope{From: id}})
	}
	n.mu.RUnlock()
	return out
}

// peerFor returns (creating if needed) the outbound link to a static peer.
func (n *Net) peerFor(id types.NodeID) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[id]; ok {
		return p
	}
	p := &peer{
		id:    id,
		addr:  n.cfg.Peers[id],
		ch:    make(chan outFrame, n.cfg.QueueSize),
		ready: make(chan struct{}),
	}
	n.peers[id] = p
	if !n.closed {
		n.wg.Add(1)
		go n.runPeer(p)
	}
	return p
}

// peer is one static outbound link: a bounded frame queue drained by a
// goroutine that dials, redials with backoff, and writes.
type peer struct {
	id   types.NodeID
	addr string
	ch   chan outFrame

	ready     chan struct{} // closed after the first successful connect
	readyOnce sync.Once

	// Link counters, snapshotted by Net.LinkStats.
	sent         atomic.Int64
	dropped      atomic.Int64
	bytes        atomic.Int64
	connects     atomic.Int64
	shapedMicros atomic.Int64
}

// enqueue adds a frame to an outbound queue, dropping when full.
func (p *peer) enqueue(f outFrame, stats *transport.Stats) {
	select {
	case p.ch <- f:
	default:
		stats.Dropped.Add(1)
		p.dropped.Add(1)
	}
}

// drainBatch coalesces f and everything already waiting on ch (up to
// maxCoalesce bytes) into scratch as wire frames, returning the filled
// buffer and the number of frames in it. This is the heart of the write
// path: one wakeup, one buffer, one flush — however many messages the
// queue held.
func (n *Net) drainBatch(scratch []byte, f outFrame, ch <-chan outFrame, sess *crypto.FrameSession) ([]byte, int) {
	scratch = n.appendFrame(scratch[:0], f.to, f.env, sess)
	count := 1
	for len(scratch) < maxCoalesce {
		select {
		case more := <-ch:
			scratch = n.appendFrame(scratch, more.to, more.env, sess)
			count++
		default:
			return scratch, count
		}
	}
	return scratch, count
}

// drainBatchLossy is drainBatch behind a per-frame loss gate: each frame is
// dropped (and counted) with probability sh.shape.Loss before assembly, the
// way a lossy path loses individual packets out of a burst.
func (n *Net) drainBatchLossy(scratch []byte, f outFrame, ch <-chan outFrame, sess *crypto.FrameSession, sh *linkShaper) ([]byte, int) {
	count := 0
	loss := sh.shape.Loss
	if loss > 0 && sh.rng.Float64() < loss {
		n.stats.Dropped.Add(1)
	} else {
		scratch = n.appendFrame(scratch, f.to, f.env, sess)
		count++
	}
	for len(scratch) < maxCoalesce {
		select {
		case more := <-ch:
			if loss > 0 && sh.rng.Float64() < loss {
				n.stats.Dropped.Add(1)
				continue
			}
			scratch = n.appendFrame(scratch, more.to, more.env, sess)
			count++
		default:
			return scratch, count
		}
	}
	return scratch, count
}

// shapedBacklog bounds the bytes a shaped link may hold on its delay line —
// the emulated router queue. Frames beyond it tail-drop, as they would on a
// congested path; without the bound, a sender outrunning the link bandwidth
// would grow the queue without limit.
const shapedBacklog = 4 << 20

// linkShaper models one outbound link's emulated discipline (netem-style):
// frames drained off the queue pass a per-frame loss gate, serialize
// through a virtual busy clock at the link bandwidth, and sit on a FIFO
// delay line until their due time. The owning writer goroutine writes
// batches as they come due; nothing in the shaper ever blocks batch
// assembly, so a link "sleeping out" its propagation delay keeps
// coalescing arrivals the whole time.
type linkShaper struct {
	shape  transport.LinkShape
	rng    *rand.Rand    // loss gate; seeded per link for reproducibility
	shaped *atomic.Int64 // cumulative emulated delay added, µs (may be nil)
	busy   time.Time     // virtual clock: when queued bytes finish serializing
	queue  []shapedBatch
	bytes  int      // wire bytes on the delay line, bounded by shapedBacklog
	free   [][]byte // recycled batch buffers
}

// shapedBatch is one assembled batch waiting out its delay.
type shapedBatch struct {
	due   time.Time
	buf   []byte
	count int
}

func newLinkShaper(shape transport.LinkShape, seed int64, shaped *atomic.Int64) *linkShaper {
	return &linkShaper{shape: shape, rng: rand.New(rand.NewSource(seed)), shaped: shaped}
}

func (sh *linkShaper) getBuf() []byte {
	if n := len(sh.free); n > 0 {
		b := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return b[:0]
	}
	return nil
}

func (sh *linkShaper) putBuf(b []byte) {
	if cap(b) <= maxCoalesce && len(sh.free) < 8 {
		sh.free = append(sh.free, b)
	}
}

// push schedules an assembled batch: serialization time advances the busy
// clock, propagation delay sets the due time. Due times are monotone, so
// the delay line stays FIFO.
func (sh *linkShaper) push(buf []byte, count int, now time.Time) {
	if sh.busy.Before(now) {
		sh.busy = now
	}
	sh.busy = sh.busy.Add(sh.shape.TxTime(len(buf)))
	due := sh.busy.Add(sh.shape.Delay)
	if sh.shaped != nil {
		sh.shaped.Add(due.Sub(now).Microseconds())
	}
	sh.queue = append(sh.queue, shapedBatch{due: due, buf: buf, count: count})
	sh.bytes += len(buf)
}

// fold concatenates every batch from index from onward into carry (in FIFO
// order) and empties the delay line, returning the carry and the number of
// frames in it — the write path failed, and what was in flight either rides
// the reconnect (peer links) or is dropped with accounting (return routes).
func (sh *linkShaper) fold(carry []byte, from int) ([]byte, int) {
	lost := 0
	for _, b := range sh.queue[from:] {
		carry = append(carry, b.buf...)
		lost += b.count
	}
	sh.queue = sh.queue[:0]
	sh.bytes = 0
	sh.busy = time.Time{}
	return carry, lost
}

// runPeer owns the peer's connection lifecycle: dial with exponential
// backoff, advertise local inboxes, then drain the outbound queue until the
// connection breaks or the fabric closes. Draining coalesces every queued
// message into one buffered write per wakeup. A batch whose write failed is
// carried across the reconnect and retransmitted first on the next
// connection — coalescing must not amplify a broken connection's one
// in-flight loss into the loss of the whole drained batch. (The receiver
// tolerates the resulting duplicates when the failed write partially
// landed; consensus is built for redelivery. Carried frames skip the
// shaper: they already paid its discipline once.)
func (n *Net) runPeer(p *peer) {
	defer n.wg.Done()
	const minBackoff = 25 * time.Millisecond
	const maxBackoff = time.Second
	backoff := minBackoff
	sess := n.auth.NewSession()
	var sh *linkShaper
	if shape, ok := n.cfg.Shape[p.id]; ok && !shape.IsZero() {
		sh = newLinkShaper(shape, n.cfg.ShapeSeed*1000003+int64(p.id)+1, &p.shapedMicros)
	}
	var carry []byte // drained-but-unwritten frames, retried after reconnect
	for {
		select {
		case <-n.done:
			return
		default:
		}
		c, err := net.DialTimeout("tcp", p.addr, n.cfg.DialTimeout)
		if err != nil {
			select {
			case <-n.done:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = minBackoff
		p.connects.Add(1)
		wc := n.adoptConn(c, false)
		if wc == nil {
			return // fabric closed during dial
		}
		// Hellos go in their own buffer: carry may hold a prior batch, and
		// route advertisements must precede it on the new connection.
		ok := true
		var hellos []byte
		for _, hello := range n.helloEnvs() {
			hellos = n.appendFrame(hellos, hello.to, hello.env, sess)
		}
		if len(hellos) > 0 {
			ok = wc.write(hellos) == nil
		}
		if ok {
			p.readyOnce.Do(func() { close(p.ready) })
		}
		if ok && len(carry) > 0 {
			ok = wc.write(carry) == nil
		}
		if ok {
			carry = carry[:0]
			var alive bool
			carry, _, alive = n.drainConn(p.ch, wc, carry, sh, sess, n.cfg.KeepaliveInterval)
			if !alive {
				return
			}
		}
		n.dropConn(wc)
		if len(carry) == 0 && cap(carry) > maxCoalesce {
			carry = nil // don't pin a burst-sized buffer across reconnects
		}
	}
}

// drainConn drains ch into wc — coalescing, shaping when sh is non-nil, and
// probing each keepalive interval when one is set — until the connection
// fails or closes, or the fabric closes. It returns the frames drained but
// not yet written (runPeer retries them after reconnect; writeLoop drops them
// with accounting), how many there are, and whether the fabric is still open.
func (n *Net) drainConn(ch <-chan outFrame, wc *wireConn, carry []byte, sh *linkShaper, sess *crypto.FrameSession, keepalive time.Duration) ([]byte, int, bool) {
	var kaC <-chan time.Time
	if keepalive > 0 {
		ka := time.NewTicker(keepalive)
		defer ka.Stop()
		kaC = ka.C
	}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		var due <-chan time.Time
		if sh != nil && len(sh.queue) > 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(sh.queue[0].due))
			due = timer.C
		}
		select {
		case <-n.done:
			return carry, 0, false
		case <-wc.done:
			return carry, 0, true
		case f := <-ch:
			if sh == nil {
				var count int
				carry, count = n.drainBatch(carry[:0], f, ch, sess)
				if err := wc.write(carry); err != nil {
					return carry, count, true
				}
				carry = carry[:0]
				continue
			}
			buf, count := n.drainBatchLossy(sh.getBuf(), f, ch, sess, sh)
			if count == 0 {
				sh.putBuf(buf)
				continue
			}
			if sh.bytes+len(buf) > shapedBacklog {
				n.stats.Dropped.Add(int64(count)) // emulated queue overflow
				sh.putBuf(buf)
				continue
			}
			sh.push(buf, count, time.Now())
		case <-due:
			now := time.Now()
			pop := 0
			for pop < len(sh.queue) && !sh.queue[pop].due.After(now) {
				b := sh.queue[pop]
				if err := wc.write(b.buf); err != nil {
					var lost int
					carry, lost = sh.fold(carry[:0], pop)
					return carry, lost, true
				}
				sh.bytes -= len(b.buf)
				sh.putBuf(b.buf)
				pop++
			}
			sh.queue = append(sh.queue[:0], sh.queue[pop:]...)
		case <-kaC:
			var probe []byte
			for _, hello := range n.helloEnvs() {
				probe = n.appendFrame(probe, hello.to, hello.env, sess)
			}
			if len(probe) == 0 {
				continue // nothing registered yet: nothing to advertise
			}
			if err := wc.write(probe); err != nil {
				var lost int
				if sh != nil {
					carry, lost = sh.fold(carry[:0], 0)
				} else {
					carry = carry[:0]
				}
				return carry, lost, true
			}
		}
	}
}

// adoptConn registers a new connection: tracked for shutdown, read loop
// started. inbound marks accepted (vs dialed) connections, which are the
// only ones the idle timer reaps. Returns nil (closing c) if the fabric is
// already closed. The return-route queue and its writer start only when a
// route is first learned through the connection (learnRoute), and the
// write buffer only at the first write: a replica's inbound connection from
// another replica never writes, and holds neither.
func (n *Net) adoptConn(c net.Conn, inbound bool) *wireConn {
	wc := &wireConn{
		c:            c,
		inbound:      inbound,
		seq:          n.connSeq.Add(1),
		writeTimeout: n.cfg.WriteTimeout,
		done:         make(chan struct{}),
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil
	}
	n.conns[wc] = struct{}{}
	n.mu.Unlock()
	n.wg.Add(1)
	go n.readLoop(wc)
	return wc
}

// dropConn closes a connection and forgets it and any routes through it.
func (n *Net) dropConn(wc *wireConn) {
	wc.close()
	n.mu.Lock()
	delete(n.conns, wc)
	for id, route := range n.routes {
		if route == wc {
			delete(n.routes, id)
		}
	}
	n.mu.Unlock()
}

// acceptLoop admits inbound connections until the listener closes.
func (n *Net) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.adoptConn(c, true)
	}
}

// writeLoop drains a connection's return-route queue with the same
// coalescing (and, under Config.ClientShape, the same shaping discipline)
// as runPeer. Static peer frames are written by runPeer directly; this
// queue carries replies to clients and hello advertisements, so neither
// path ever blocks a consensus goroutine. Unlike a static peer there is no
// reconnect to retry on, so frames in flight when the connection dies are
// lost — counted as drops, and clients retransmit.
func (n *Net) writeLoop(wc *wireConn) {
	defer n.wg.Done()
	var sh *linkShaper
	if n.cfg.ClientShape != nil && !n.cfg.ClientShape.IsZero() {
		sh = newLinkShaper(*n.cfg.ClientShape, n.cfg.ShapeSeed*1000003-wc.seq, nil)
	}
	_, lost, alive := n.drainConn(wc.out, wc, nil, sh, n.auth.NewSession(), 0)
	if alive && lost > 0 {
		n.stats.Dropped.Add(int64(lost))
	}
}

// readLoop parses frames off one connection until it breaks: verify the
// authenticator, learn return routes from hellos (and from any sender we
// cannot reach otherwise), and deliver to the local inbox. The socket is
// read through a buffered reader, so a coalesced burst costs one syscall to
// ingest too. Delivery blocks when an inbox is full — TCP flow control then
// pushes back on the sender, as on any real network.
func (n *Net) readLoop(wc *wireConn) {
	defer n.wg.Done()
	defer n.dropConn(wc)
	sess := n.auth.NewSession()
	idle := time.Duration(0)
	if wc.inbound {
		idle = n.cfg.IdleTimeout
	}
	br := bufio.NewReaderSize(wc.c, sockBufSize)
	var lenBuf [4]byte
	for {
		if idle > 0 {
			// Armed before each frame: a dialer that stops sending (even
			// keepalive probes) is partitioned or dead, and holding its
			// connection would only hide that from the routing table.
			wc.c.SetReadDeadline(time.Now().Add(idle))
		}
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		frameLen := binary.LittleEndian.Uint32(lenBuf[:])
		if int64(frameLen) > int64(n.cfg.MaxFrame) || frameLen < 4+crypto.FrameTagSize {
			return // malformed or hostile length prefix: poison, drop the conn
		}
		// One allocation per inbound frame: the decoded envelope's payload
		// and signature alias this buffer, which the consensus layer may
		// retain indefinitely, so it cannot be pooled.
		frame := make([]byte, frameLen)
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		body := frame[:len(frame)-crypto.FrameTagSize]
		tag := frame[len(frame)-crypto.FrameTagSize:]
		if !sess.Verify(body, tag) {
			return // unauthenticated traffic: drop the connection
		}
		to := binary.LittleEndian.Uint32(body)
		env, _, err := types.DecodeEnvelope(body[4:])
		if err != nil {
			return
		}
		if to == helloDst {
			// Routes are learned ONLY from hello frames: an ordinary frame's
			// From may have been forwarded by a replica, and recording the
			// forwarding connection as the sender's route would misdeliver
			// every later reply.
			n.learnRoute(env.From, wc)
			continue
		}
		n.mu.RLock()
		ch, ok := n.inboxes[types.NodeID(to)]
		n.mu.RUnlock()
		if !ok {
			n.stats.Dropped.Add(1)
			continue
		}
		select {
		case ch <- env:
			n.stats.Delivered.Add(1)
		case <-n.done:
			return
		}
	}
}

// learnRoute records (or refreshes) the connection a dynamic sender is
// reachable over. Static peers never route this way. The first route through
// a connection starts its return-route queue and writer, before the route is
// published, so every Send that finds the route finds the queue.
func (n *Net) learnRoute(from types.NodeID, wc *wireConn) {
	if _, static := n.cfg.Peers[from]; static {
		return
	}
	n.mu.Lock()
	if !n.closed {
		if _, local := n.inboxes[from]; !local {
			if wc.out == nil {
				wc.out = make(chan outFrame, n.cfg.QueueSize)
				n.wg.Add(1)
				go n.writeLoop(wc)
			}
			n.routes[from] = wc
		}
	}
	n.mu.Unlock()
}

// wireConn wraps one TCP connection with a buffered writer under a mutex
// (runPeer and writeLoop may interleave on the same socket) and a bounded
// queue for return-route traffic.
type wireConn struct {
	c            net.Conn
	w            *bufio.Writer // made at the first write, under wmu
	out          chan outFrame // made with the first return route, under Net.mu
	inbound      bool          // accepted (true) vs dialed; only accepted conns idle out
	seq          int64         // fabric-unique, salts this connection's loss generator
	writeTimeout time.Duration
	// done is closed with the socket, so a writer blocked on an empty queue
	// exits with its connection rather than with the fabric.
	done chan struct{}

	wmu       sync.Mutex
	closeOnce sync.Once
}

// write pushes an assembled batch of frames through the buffered writer and
// flushes once — one syscall per wakeup for any batch up to the buffer
// size. The write deadline bounds how long a peer that stopped reading can
// pin the writer goroutine.
func (wc *wireConn) write(batch []byte) error {
	wc.wmu.Lock()
	defer wc.wmu.Unlock()
	if wc.writeTimeout > 0 {
		wc.c.SetWriteDeadline(time.Now().Add(wc.writeTimeout))
	}
	if wc.w == nil {
		wc.w = bufio.NewWriterSize(wc.c, sockBufSize)
	}
	if _, err := wc.w.Write(batch); err != nil {
		return err
	}
	return wc.w.Flush()
}

// enqueue queues a frame for the connection's writer, dropping when full.
func (wc *wireConn) enqueue(f outFrame, stats *transport.Stats) {
	select {
	case wc.out <- f:
	default:
		stats.Dropped.Add(1)
	}
}

func (wc *wireConn) close() {
	wc.closeOnce.Do(func() {
		close(wc.done)
		wc.c.Close()
	})
}

// Loopback builds one listening fabric per replica on 127.0.0.1 plus a
// dial-only fabric for clients, all sharing one secret — a full multi-node
// TCP deployment inside a single process, used by core's TransportTCP mode
// and the integration tests. tune, when non-nil, adjusts each fabric's
// config before construction.
func Loopback(ids []types.NodeID, secret []byte, tune func(*Config)) (map[types.NodeID]*Net, *Net, error) {
	listeners := make(map[types.NodeID]net.Listener, len(ids))
	peers := make(map[types.NodeID]string, len(ids))
	fail := func(err error) (map[types.NodeID]*Net, *Net, error) {
		for _, ln := range listeners {
			ln.Close()
		}
		return nil, nil, err
	}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("tcpnet: loopback listener for %s: %w", id, err))
		}
		listeners[id] = ln
		peers[id] = ln.Addr().String()
	}
	fabrics := make(map[types.NodeID]*Net, len(ids))
	for _, id := range ids {
		cfg := Config{Self: id, Listener: listeners[id], Peers: peers, Secret: secret}
		if tune != nil {
			tune(&cfg)
		}
		fab, err := New(cfg)
		if err != nil {
			for _, f := range fabrics {
				f.Close()
			}
			return fail(err)
		}
		delete(listeners, id) // ownership transferred
		fabrics[id] = fab
	}
	clientCfg := Config{Peers: peers, Secret: secret}
	if tune != nil {
		tune(&clientCfg)
	}
	clientFab, err := New(clientCfg)
	if err != nil {
		for _, f := range fabrics {
			f.Close()
		}
		return fail(err)
	}
	return fabrics, clientFab, nil
}
