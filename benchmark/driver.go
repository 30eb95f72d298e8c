package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// wire is what the driver needs from a message fabric: one registered
// endpoint to receive on, and a non-blocking send.
type wire interface {
	Register(id NodeID) <-chan *Envelope
	Send(to NodeID, env *Envelope)
}

// gateways describes one cluster to the driver: its members in order, and how
// many matching verdicts from distinct members complete a request (1 under
// the crash model, f+1 under the Byzantine model).
type gateways struct {
	members []NodeID
	needed  int
}

// outcome classifies a finished request.
type outcome uint8

const (
	committed outcome = iota
	rejected          // ordered but failed validation: never expected, balances cannot overdraw
	shed              // gateway answered Overloaded
	expired           // gateway answered Expired
	abandoned         // no verdict quorum within abandonAfter
)

// request is one submitted transaction from due time to verdict quorum.
type request struct {
	id       TxID
	involved ClusterSet
	target   ClusterID
	payload  []byte
	phase    *phase

	due        time.Time // when the schedule wanted it sent; latency counts from here
	sent       time.Time
	lastSent   time.Time // most recent (re)transmission
	firstReply time.Time
	nextResend time.Time
	first      int         // member offset of the target cluster it was last sent to
	votes      [4][]NodeID // distinct repliers per SubmitCode
}

// phase collects what one timed phase observed. Fields are guarded by the
// driver's mutex until the phase has drained.
type phase struct {
	name   string
	traced bool
	start  time.Time
	length time.Duration

	attempted   int
	outcomes    [5]int
	failedCross int // how many of the failures were cross-shard requests
	// lost describes the first few abandoned requests, for the report: a
	// failure must come with its reason.
	lost []string

	// Latencies of committed requests, ms, due → quorum; dueSec is when each
	// was due, in seconds into the phase.
	lat, latIntra, latCross []float64
	dueSec                  []float64
	quorumWait              []float64 // first reply → quorum, ms
	// marks are the instants the phase's scheduled events ran, by name.
	// afterCrash are the completion instants of committed requests targeting
	// cluster 0 that were due after marks["crash"], for unavailable_ms.
	marks       map[string]time.Time
	afterCrash  []time.Time
	retransmits int
	outMax      int
	maxLate     time.Duration // open loop: worst (sent − due)

	committedNow atomic.Int64 // live count for the sampler
	samples      []sample
}

func (p *phase) failed() int {
	return p.outcomes[rejected] + p.outcomes[shed] + p.outcomes[expired] + p.outcomes[abandoned]
}

// driver is the benchmark's asynchronous client: one endpoint on the
// deployment's client fabric, a pacer (whichever goroutine calls runClosed /
// runOpen) that sends Submit envelopes, and a reader goroutine that matches
// SubmitReply verdicts by TxID.
type driver struct {
	id    NodeID
	net   wire
	inbox <-chan *Envelope
	gen   *generator
	gw    map[ClusterID]gateways
	rec   *recorder // nil unless tracing
	// Retransmission policy and the open loop's cap on outstanding requests;
	// the constants of workloads.go, fields so that tests can shorten them.
	resendEvery, abandonAfter time.Duration
	openCap                   int

	mu   sync.Mutex
	out  map[uint64]*request // outstanding, by TxID.Seq
	pref map[ClusterID]int   // member offset new requests of a cluster start at
	// heard is when each replica last answered anything: a gateway that has
	// stayed silent since a request was sent to it is taken for dead.
	heard map[NodeID]time.Time
	seq   uint64
	// stray counts verdicts for requests no longer outstanding: duplicates
	// after a retransmission, or the rest of a quorum already reached.
	stray int
	// done lists every request the driver saw commit, for the audit.
	done []committedTx

	slots    chan struct{} // one token per finished request; the closed loop's pacer refills from it
	stop     chan struct{}
	readerWG sync.WaitGroup
}

// committedTx is what the audit needs to find a transaction in the ledger.
type committedTx struct {
	id       TxID
	involved ClusterSet
}

func newDriver(id NodeID, net wire, gw map[ClusterID]gateways, gen *generator) *driver {
	d := &driver{
		id:    id,
		net:   net,
		inbox: net.Register(id),
		gen:   gen,
		gw:    gw,

		resendEvery:  resendEvery,
		abandonAfter: abandonAfter,
		openCap:      openCap,

		out:   make(map[uint64]*request),
		pref:  make(map[ClusterID]int, len(gw)),
		heard: make(map[NodeID]time.Time),
		// Room for far more than the largest closed-loop window, so a
		// closed phase never loses a token.
		slots: make(chan struct{}, 4096),
		stop:  make(chan struct{}),
	}
	for c, g := range gw {
		d.pref[c] = len(g.members) - 1 // the home gateway: a backup in view 0 (README.md)
	}
	d.readerWG.Add(1)
	go d.reader()
	return d
}

// record attaches the span recorder; phases started as traced report to it.
func (d *driver) record(rec *recorder) {
	d.mu.Lock()
	d.rec = rec
	d.mu.Unlock()
}

// close stops the reader and waits for it.
func (d *driver) close() {
	close(d.stop)
	d.readerWG.Wait()
}

func (d *driver) reader() {
	defer d.readerWG.Done()
	for {
		select {
		case env := <-d.inbox:
			if env == nil || env.Type != MsgSubmitReply {
				continue
			}
			r, err := DecodeSubmitReply(env.Payload)
			if err != nil || r.Replica != env.From || r.TxID.Client != d.id {
				continue
			}
			d.onReply(r, time.Now())
		case <-d.stop:
			return
		}
	}
}

// onReply counts one verdict toward its request's quorum. Admission verdicts
// (Overloaded, Expired) are one gateway's local judgment and finish the
// request at once; commit verdicts need `needed` matching ones from distinct
// replicas.
func (d *driver) onReply(r *SubmitReply, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.heard[r.Replica] = now
	req, ok := d.out[r.TxID.Seq]
	if !ok {
		d.stray++
		return
	}
	if req.firstReply.IsZero() {
		req.firstReply = now
	}
	switch r.Code {
	case SubmitOverloaded:
		d.finish(req, shed, now)
		return
	case SubmitExpired:
		d.finish(req, expired, now)
		return
	}
	voters := req.votes[r.Code]
	for _, v := range voters {
		if v == r.Replica {
			return // a replica counts once per verdict
		}
	}
	req.votes[r.Code] = append(voters, r.Replica)
	if len(req.votes[r.Code]) < d.gw[req.target].needed {
		return
	}
	if r.Code == SubmitCommitted {
		d.finish(req, committed, now)
	} else {
		d.finish(req, rejected, now)
	}
}

// finish retires a request and books its outcome. Caller holds d.mu.
func (d *driver) finish(req *request, o outcome, now time.Time) {
	delete(d.out, req.id.Seq)
	p := req.phase
	p.outcomes[o]++
	if o != committed && len(req.involved) > 1 {
		p.failedCross++
	}
	if o == abandoned && len(p.lost) < 8 {
		p.lost = append(p.lost, fmt.Sprintf("%s involving %s, due %.3f s into the phase, last offered to member %d of %s",
			req.id, req.involved, req.due.Sub(p.start).Seconds(), req.first, req.target))
	}
	if o == committed {
		ms := float64(now.Sub(req.due)) / float64(time.Millisecond)
		p.lat = append(p.lat, ms)
		p.dueSec = append(p.dueSec, req.due.Sub(p.start).Seconds())
		if len(req.involved) > 1 {
			p.latCross = append(p.latCross, ms)
		} else {
			p.latIntra = append(p.latIntra, ms)
		}
		p.quorumWait = append(p.quorumWait, float64(now.Sub(req.firstReply))/float64(time.Millisecond))
		if crash, ok := p.marks["crash"]; ok && req.target == 0 && req.due.After(crash) {
			p.afterCrash = append(p.afterCrash, now)
		}
		p.committedNow.Add(1)
		d.done = append(d.done, committedTx{id: req.id, involved: req.involved})
	}
	if d.rec != nil && p.traced {
		d.rec.request(req, o, now)
	}
	select {
	case d.slots <- struct{}{}:
	default: // only an open phase can fill it, and that pacer does not read it
	}
}

// issue generates the next transaction, registers it as outstanding and
// sends it. due is the instant latency is counted from.
func (d *driver) issue(p *phase, due, now time.Time) {
	ops := d.gen.next()
	d.mu.Lock()
	d.seq++
	tx := &Tx{
		ID:        TxID{Client: d.id, Seq: d.seq},
		Client:    d.id,
		Timestamp: now.UnixNano(),
		Ops:       ops,
		Involved:  d.gen.involved(ops),
	}
	req := &request{
		id:         tx.ID,
		involved:   tx.Involved,
		target:     tx.Involved.Min(),
		payload:    (&Submit{Txs: []*Tx{tx}}).Encode(nil),
		phase:      p,
		due:        due,
		sent:       now,
		lastSent:   now,
		nextResend: now.Add(d.resendEvery),
	}
	d.out[tx.ID.Seq] = req
	p.attempted++
	if n := len(d.out); n > p.outMax {
		p.outMax = n
	}
	if late := now.Sub(due); late > p.maxLate {
		p.maxLate = late
	}
	req.first = d.pref[req.target]
	d.mu.Unlock()
	d.send(req)
}

// send offers the request to `needed` consecutive members of its target
// cluster, starting at member offset req.first (which only the pacer, the
// caller, ever writes).
func (d *driver) send(req *request) {
	g := d.gw[req.target]
	env := &Envelope{Type: MsgSubmit, From: d.id, Payload: req.payload}
	for i := 0; i < g.needed && i < len(g.members); i++ {
		d.net.Send(g.members[(req.first+i)%len(g.members)], env)
	}
}

// resend retransmits every outstanding request whose timer ran out to the
// next member(s) of its cluster, and abandons those older than abandonAfter.
// If the gateway the request was last sent to has answered nothing at all
// since, it is taken for dead and the cluster's later requests start at the
// next member; a gateway that is merely slow keeps its clients.
func (d *driver) resend(now time.Time) {
	var todo []*request
	d.mu.Lock()
	for _, req := range d.out {
		if now.Sub(req.sent) >= d.abandonAfter {
			d.finish(req, abandoned, now)
			continue
		}
		if now.Before(req.nextResend) {
			continue
		}
		req.nextResend = now.Add(d.resendEvery)
		req.phase.retransmits++
		members := d.gw[req.target].members
		silent := d.heard[members[req.first]].Before(req.lastSent)
		req.first = (req.first + 1) % len(members)
		req.lastSent = now
		if silent {
			d.pref[req.target] = req.first
		}
		todo = append(todo, req)
		if d.rec != nil && req.phase.traced {
			d.rec.retransmit(req, now)
		}
	}
	d.mu.Unlock()
	for _, req := range todo {
		d.send(req)
	}
}

func (d *driver) outstanding() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.out)
}

// event is something the open phase's pacer does at a fixed offset into the
// phase.
type event struct {
	name string
	at   time.Duration
	run  func()
}

// resendTick is how often the pacer looks for requests to retransmit;
// capPoll how often an open phase held at openCap looks for room.
const (
	resendTick = 50 * time.Millisecond
	capPoll    = time.Millisecond
)

// sampler records the phase's cumulative counters every sampleEvery until
// stopped. It returns a function that stops it and waits.
func (p *phase) sampler() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	take := func() {
		p.samples = append(p.samples, sample{
			atSec:     time.Since(p.start).Seconds(),
			committed: p.committedNow.Load(),
			cpuMs:     cpuMillis(),
		})
	}
	take()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// drain keeps retransmitting until nothing is outstanding (every request
// ends in a verdict or is abandoned, so this terminates within abandonAfter).
func (d *driver) drain() {
	tick := time.NewTicker(resendTick)
	defer tick.Stop()
	for d.outstanding() > 0 {
		select {
		case <-d.slots:
		case now := <-tick.C:
			d.resend(now)
		}
	}
	// Leftover tokens belong to the phase that just ended.
	for {
		select {
		case <-d.slots:
		default:
			return
		}
	}
}

// first sends one request and waits for its verdict: the end of set-up.
func (d *driver) first() bool {
	now := time.Now()
	p := &phase{name: "first", start: now}
	d.issue(p, now, now)
	d.drain()
	return p.outcomes[committed] == 1
}

// runClosed keeps `window` requests outstanding for `length`: a new one is
// sent when one completes. The caller is the pacer.
func (d *driver) runClosed(name string, window int, length time.Duration, traced bool) *phase {
	p := &phase{name: name, traced: traced, start: time.Now(), length: length}
	stopSampler := p.sampler()
	end := time.NewTimer(length)
	defer end.Stop()
	tick := time.NewTicker(resendTick)
	defer tick.Stop()
	for i := 0; i < window; i++ {
		now := time.Now()
		d.issue(p, now, now)
	}
loop:
	for {
		select {
		case <-d.slots:
			now := time.Now()
			d.issue(p, now, now)
		case now := <-tick.C:
			d.resend(now)
		case <-end.C:
			break loop
		}
	}
	stopSampler()
	d.drain()
	return p
}

// runOpen sends requests on a fixed schedule of `rate` per second for
// `length`, whatever the system does with them. Each request is timed from
// the instant it was due, so a stall in the system (or in this generator)
// shows in every request scheduled during it.
//
// The one thing the schedule yields to is openCap: while that many requests
// are outstanding, the ones that fall due wait in the pacer, still timed from
// their due instants, and go out as verdicts make room; the phase ends when
// the whole schedule has been sent. A host that takes the CPU away for
// seconds then costs latency (and shows as generator lateness) instead of
// piling the backlog into the system's mempools, where every entry is
// retransmitted twice a second and the ones at the back are abandoned.
//
// events are started by the pacer at their offsets into the phase, in order,
// each on a goroutine of its own so that a slow one (a node restart) does not
// hold the schedule up; the phase waits for them before it returns.
func (d *driver) runOpen(name string, rate int, length time.Duration, traced bool, events []event) *phase {
	p := &phase{name: name, traced: traced, start: time.Now(), length: length, marks: make(map[string]time.Time)}
	stopSampler := p.sampler()
	var running sync.WaitGroup
	gap := time.Second / time.Duration(rate)
	total := int(length / gap)
	nextResend := p.start.Add(resendTick)
	for k := 0; k < total; {
		now := time.Now()
		held := false
		for ; k < total; k++ {
			due := p.start.Add(time.Duration(k) * gap)
			if due.After(now) {
				break
			}
			if held = d.outstanding() >= d.openCap; held {
				break
			}
			d.issue(p, due, now)
		}
		for len(events) > 0 && now.Sub(p.start) >= events[0].at {
			d.mu.Lock()
			p.marks[events[0].name] = now
			d.mu.Unlock()
			running.Add(1)
			go func(run func()) {
				defer running.Done()
				run()
			}(events[0].run)
			events = events[1:]
		}
		if !now.Before(nextResend) {
			d.resend(now)
			nextResend = now.Add(resendTick)
		}
		if k < total {
			wake := p.start.Add(time.Duration(k) * gap)
			if held {
				wake = now.Add(capPoll)
			}
			if nextResend.Before(wake) {
				wake = nextResend
			}
			time.Sleep(time.Until(wake))
		}
	}
	time.Sleep(time.Until(p.start.Add(length)))
	stopSampler()
	running.Wait()
	d.drain()
	return p
}
