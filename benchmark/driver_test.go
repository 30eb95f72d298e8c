package main

import (
	"sync"
	"testing"
	"time"
)

// fakeSystem stands in for a deployment on the driver's wire interface. Every
// Submit it receives is handed to `behave`, which the test scripts.
type fakeSystem struct {
	inbox  chan *Envelope
	behave func(f *fakeSystem, to NodeID, tx *Tx, nth int)

	mu    sync.Mutex
	sends int
	// blockAt, when positive, makes the blockAt-th Send block for blockFor:
	// a system that pushes back on its sender.
	blockAt  int
	blockFor time.Duration
}

func newFake(behave func(f *fakeSystem, to NodeID, tx *Tx, nth int)) *fakeSystem {
	return &fakeSystem{inbox: make(chan *Envelope, 1<<16), behave: behave}
}

func (f *fakeSystem) Register(NodeID) <-chan *Envelope { return f.inbox }

func (f *fakeSystem) Send(to NodeID, env *Envelope) {
	s, err := DecodeSubmit(env.Payload)
	if err != nil || len(s.Txs) != 1 {
		panic("fake: the driver sent something that is not a one-transaction Submit")
	}
	f.mu.Lock()
	f.sends++
	nth := f.sends
	f.mu.Unlock()
	if nth == f.blockAt {
		time.Sleep(f.blockFor)
	}
	f.behave(f, to, s.Txs[0], nth)
}

// reply delivers a verdict on id from replica after delay.
func (f *fakeSystem) reply(replica NodeID, id TxID, code SubmitCode, delay time.Duration) {
	env := &Envelope{Type: MsgSubmitReply, From: replica,
		Payload: (&SubmitReply{TxID: id, Replica: replica, Code: code}).Encode(nil)}
	if delay <= 0 {
		f.inbox <- env
		return
	}
	time.AfterFunc(delay, func() { f.inbox <- env })
}

// oneCluster is a single cluster of 2f+1 (crash, one verdict needed) or 3f+1
// (Byzantine, f+1 = 2 needed) gateways with f = 1.
func oneCluster(needed int) map[ClusterID]gateways {
	members := []NodeID{0, 1, 2}
	if needed == 2 {
		members = []NodeID{0, 1, 2, 3}
	}
	return map[ClusterID]gateways{0: {members: members, needed: needed}}
}

func testDriver(t *testing.T, f *fakeSystem, needed int) *driver {
	t.Helper()
	d := newDriver(driverIDBase, f, oneCluster(needed), newGenerator(mix{shards: 1, accounts: 16}, 1))
	t.Cleanup(d.close)
	return d
}

// A request is timed from the instant it was due. A system that blocks the
// sender for 200 ms delays every request scheduled during the block; timing
// from the send instant would hide that (coordinated omission), timing from
// the due instant must show it in the tail.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	f := newFake(func(f *fakeSystem, to NodeID, tx *Tx, _ int) {
		f.reply(to, tx.ID, SubmitCommitted, time.Millisecond)
	})
	f.blockAt, f.blockFor = 300, 200*time.Millisecond
	d := testDriver(t, f, 1)
	p := d.runOpen("open", 1000, time.Second, false, nil)
	if p.attempted != 1000 || p.outcomes[committed] != 1000 {
		t.Fatalf("attempted %d, committed %d, want 1000 of each", p.attempted, p.outcomes[committed])
	}
	lat := sortedCopy(p.lat)
	if p99 := percentile(lat, 99); p99 < 150 {
		t.Errorf("p99 = %.1f ms: a 200 ms stall of the sender must show in the tail", p99)
	}
	if p50 := percentile(lat, 50); p50 > 50 {
		t.Errorf("p50 = %.1f ms: requests outside the stall must stay fast", p50)
	}
	if p.maxLate < 150*time.Millisecond {
		t.Errorf("generator lateness %v: the stall must be reported as the generator running late", p.maxLate)
	}
}

// The same stall inside the system (replies held back, sender never blocked)
// also lands in the tail, with the generator on time.
func TestSystemStallRaisesTail(t *testing.T) {
	start := time.Now()
	f := newFake(func(f *fakeSystem, to NodeID, tx *Tx, _ int) {
		delay := time.Millisecond
		if since := time.Since(start); since > 300*time.Millisecond && since < 500*time.Millisecond {
			delay = 500*time.Millisecond - since // held until the stall ends
		}
		f.reply(to, tx.ID, SubmitCommitted, delay)
	})
	d := testDriver(t, f, 1)
	p := d.runOpen("open", 1000, time.Second, false, nil)
	if p99 := percentile(sortedCopy(p.lat), 99); p99 < 150 {
		t.Errorf("p99 = %.1f ms, want the 200 ms stall in it", p99)
	}
	if p.maxLate > 50*time.Millisecond {
		t.Errorf("generator ran %v late though nothing blocked it", p.maxLate)
	}
}

// A system that stops answering gets at most openCap requests; the rest of the
// schedule waits in the pacer and goes out once verdicts make room, every
// request still timed from its due instant and none of them lost.
func TestOpenLoopHoldsBacklogAtCap(t *testing.T) {
	start := time.Now()
	f := newFake(func(f *fakeSystem, to NodeID, tx *Tx, _ int) {
		// Nothing is answered before 300 ms.
		f.reply(to, tx.ID, SubmitCommitted, max(time.Millisecond, 300*time.Millisecond-time.Since(start)))
	})
	d := testDriver(t, f, 1)
	d.openCap = 50
	p := d.runOpen("open", 2000, 500*time.Millisecond, false, nil)
	if p.attempted != 1000 || p.outcomes[committed] != 1000 {
		t.Fatalf("attempted %d, committed %d, want 1000 of each", p.attempted, p.outcomes[committed])
	}
	if p.outMax > 50 {
		t.Errorf("%d requests outstanding at once, cap is 50", p.outMax)
	}
	if f.sends != 1000 {
		t.Errorf("%d sends for 1000 requests: the held requests were not sent exactly once", f.sends)
	}
	// The request due at 100 ms could not be sent before 300 ms.
	if p.maxLate < 150*time.Millisecond {
		t.Errorf("generator lateness %v: requests held at the cap must count as sent late", p.maxLate)
	}
	if p50 := percentile(sortedCopy(p.lat), 50); p50 < 40 {
		t.Errorf("p50 = %.1f ms: held requests must be timed from when they were due", p50)
	}
}

// Sheds, expiries and abandoned requests are failures; verdicts that arrive
// for a request already settled are counted as stray, never as a second
// outcome.
func TestFailureBookkeeping(t *testing.T) {
	f := newFake(func(f *fakeSystem, to NodeID, tx *Tx, _ int) {
		switch tx.ID.Seq % 5 {
		case 0:
			f.reply(to, tx.ID, SubmitOverloaded, 0)
		case 1:
			f.reply(to, tx.ID, SubmitExpired, 0)
		case 2:
			// silence: abandoned once the deadline passes
		case 3:
			f.reply(to, tx.ID, SubmitCommitted, 0)
			f.reply(to, tx.ID, SubmitCommitted, 0) // duplicate verdict
		default:
			f.reply(to, tx.ID, SubmitRejected, 0)
		}
	})
	d := testDriver(t, f, 1)
	d.resendEvery, d.abandonAfter = 20*time.Millisecond, 100*time.Millisecond
	p := d.runOpen("open", 500, 200*time.Millisecond, false, nil)
	if p.attempted != 100 {
		t.Fatalf("attempted %d, want 100", p.attempted)
	}
	want := [5]int{committed: 20, rejected: 20, shed: 20, expired: 20, abandoned: 20}
	if p.outcomes != want {
		t.Errorf("outcomes %v, want %v", p.outcomes, want)
	}
	if p.failed() != 80 {
		t.Errorf("failed %d, want 80", p.failed())
	}
	if len(p.lat) != 20 {
		t.Errorf("%d latency samples, want one per committed request", len(p.lat))
	}
	if d.stray < 20 {
		t.Errorf("stray replies %d, want at least the 20 duplicate verdicts", d.stray)
	}
	if p.retransmits == 0 {
		t.Error("silent requests were never retransmitted")
	}
}

// Under the Byzantine model a request completes at f+1 matching verdicts from
// distinct replicas: one verdict, the same replica twice, or two replicas
// disagreeing do not complete it.
func TestQuorumMatching(t *testing.T) {
	f := newFake(func(*fakeSystem, NodeID, *Tx, int) {})
	d := testDriver(t, f, 2)
	p := &phase{name: "unit", start: time.Now()}
	now := time.Now()
	d.issue(p, now, now)
	id := TxID{Client: d.id, Seq: 1}
	verdict := func(replica NodeID, code SubmitCode) {
		d.onReply(&SubmitReply{TxID: id, Replica: replica, Code: code}, now.Add(time.Millisecond))
	}
	verdict(0, SubmitCommitted)
	verdict(0, SubmitCommitted) // same replica again
	verdict(1, SubmitRejected)  // a different verdict
	if d.outstanding() != 1 {
		t.Fatal("request completed without f+1 matching verdicts from distinct replicas")
	}
	verdict(2, SubmitCommitted)
	if d.outstanding() != 0 || p.outcomes[committed] != 1 {
		t.Fatalf("request did not complete at the second matching verdict (outcomes %v)", p.outcomes)
	}
	if f.sends != 2 {
		t.Errorf("request was offered to %d gateways, want f+1 = 2", f.sends)
	}
}

// unavailable_ms on a scripted timeline: crash at t0, the first cluster-0
// request due after it gets its verdict 640 ms later; requests due before the
// crash and requests of other clusters do not count.
func TestUnavailableOnScriptedTimeline(t *testing.T) {
	f := newFake(func(*fakeSystem, NodeID, *Tx, int) {})
	gw := map[ClusterID]gateways{
		0: {members: []NodeID{0, 1, 2}, needed: 1},
		1: {members: []NodeID{3, 4, 5}, needed: 1},
	}
	d := newDriver(driverIDBase, f, gw, newGenerator(mix{shards: 2, accounts: 16}, 1))
	t.Cleanup(d.close)
	t0 := time.Now()
	p := &phase{name: "unit", start: t0, marks: map[string]time.Time{"crash": t0.Add(100 * time.Millisecond)}}
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	// The generator alternates home clusters 0, 1, 0, 1 …
	d.issue(p, ms(50), ms(50))   // seq 1, cluster 0, due before the crash
	d.issue(p, ms(120), ms(120)) // seq 2, cluster 1
	d.issue(p, ms(150), ms(150)) // seq 3, cluster 0, due after the crash
	d.issue(p, ms(160), ms(160)) // seq 4, cluster 1
	d.issue(p, ms(170), ms(170)) // seq 5, cluster 0
	commit := func(seq uint64, replica NodeID, at time.Time) {
		d.onReply(&SubmitReply{TxID: TxID{Client: d.id, Seq: seq}, Replica: replica, Code: SubmitCommitted}, at)
	}
	commit(2, 5, ms(130)) // other cluster: service there never stopped
	commit(1, 2, ms(400)) // due before the crash
	commit(5, 0, ms(740)) // first post-crash cluster-0 verdict
	commit(3, 0, ms(900))
	commit(4, 5, ms(200))
	if got := p.unavailableMs(); got < 639.9 || got > 640.1 {
		t.Errorf("unavailable_ms = %v, want 640", got)
	}
}

// A gateway that answers nothing loses its clients to the next member; one
// that is merely slow (it still answers other requests) keeps them.
func TestSilentGatewayLosesItsClients(t *testing.T) {
	f := newFake(func(f *fakeSystem, to NodeID, tx *Tx, _ int) {
		if to != 2 { // member 2, the home gateway, is dead
			f.reply(to, tx.ID, SubmitCommitted, 0)
		}
	})
	d := testDriver(t, f, 1)
	d.resendEvery, d.abandonAfter = 20*time.Millisecond, time.Second
	p := d.runClosed("closed", 4, 200*time.Millisecond, false)
	if p.failed() != 0 {
		t.Fatalf("%d requests failed though two gateways were alive", p.failed())
	}
	if got := d.pref[0]; got == 2 {
		t.Error("new requests still start at the dead gateway")
	}
	if p.outcomes[committed] < 20 {
		t.Errorf("only %d commits: the closed loop did not move on after failing over", p.outcomes[committed])
	}
}
