package transport

import (
	"slices"
	"sync"
	"testing"
	"time"

	"sharper/internal/types"
)

// The tests in this file pin the fabric's queueing model: a replica is one
// FIFO server fed in arrival order, a link is FIFO, and nothing a message
// will cost in the future is charged before it arrives. Latencies are tens of
// milliseconds where the assertion is about wall-clock time, so a loaded
// host's scheduling noise stays far inside the margins.

func seqEnv(from types.NodeID, i int) *types.Envelope {
	return &types.Envelope{From: from, Type: types.MsgRequest, Payload: []byte{byte(i), byte(i >> 8), byte(i >> 16)}}
}

func seqOf(env *types.Envelope) int {
	return int(env.Payload[0]) | int(env.Payload[1])<<8 | int(env.Payload[2])<<16
}

func recvWithin(t *testing.T, ch <-chan *types.Envelope, d time.Duration, what string) *types.Envelope {
	t.Helper()
	select {
	case env := <-ch:
		return env
	case <-time.After(d):
		t.Fatalf("%s: nothing delivered within %v", what, d)
		return nil
	}
}

// slowFastNet has nodes 0 and 2 in cluster 0 and node 1 in cluster 1, with
// a fast intra-cluster link and a slow cross-cluster one.
func slowFastNet(slow time.Duration) *Network {
	return New(Config{
		IntraClusterLatency: 100 * time.Microsecond,
		CrossClusterLatency: slow,
		ProcessingTime:      time.Millisecond,
	}, func(id types.NodeID) (types.ClusterID, bool) {
		return types.ClusterID(uint32(id) % 2), true
	})
}

// TestLateArrivalDoesNotBlockEarlierOne: a message with a long way to go,
// sent first, must not delay a short-hop message sent later to the same
// replica. The receiver's core is charged when a message arrives, not when
// it is sent.
func TestLateArrivalDoesNotBlockEarlierOne(t *testing.T) {
	const slow = 200 * time.Millisecond
	n := slowFastNet(slow)
	defer n.Close()
	far, near, dst := types.NodeID(1), types.NodeID(2), types.NodeID(0)
	n.Register(far)
	n.Register(near)
	inbox := n.Register(dst)

	start := time.Now()
	n.Send(dst, seqEnv(far, 0))
	n.Send(dst, seqEnv(near, 1))
	if env := recvWithin(t, inbox, slow/2, "near message"); env.From != near {
		t.Fatalf("first delivery is from %v, want the near sender %v", env.From, near)
	}
	if env := recvWithin(t, inbox, 2*slow, "far message"); env.From != far {
		t.Fatalf("second delivery is from %v, want %v", env.From, far)
	}
	if d := time.Since(start); d < slow {
		t.Fatalf("far message took %v, want ≥ %v", d, slow)
	}
}

// TestInboundInFlightDoesNotDelaySends: a replica with a message on its way
// to it sends at once; the inbound message occupies its core only from the
// moment it arrives.
func TestInboundInFlightDoesNotDelaySends(t *testing.T) {
	const slow = 200 * time.Millisecond
	n := slowFastNet(slow)
	defer n.Close()
	far, mid, near := types.NodeID(1), types.NodeID(0), types.NodeID(2)
	n.Register(far)
	inMid := n.Register(mid)
	inNear := n.Register(near)

	n.Send(mid, seqEnv(far, 0)) // 200 ms from arriving at mid
	n.Send(near, seqEnv(mid, 1))
	recvWithin(t, inNear, slow/2, "mid's own send")
	recvWithin(t, inMid, 2*slow, "inbound message")
}

// TestLinkOrderSurvivesJitter: neither jitter nor the receiver's core stage
// reorders one link, however late the dispatcher runs.
func TestLinkOrderSurvivesJitter(t *testing.T) {
	n, a, b, inboxB := twoNodes(DefaultConfig())
	defer n.Close()
	const msgs = 10000
	go func() {
		for i := 0; i < msgs; i++ {
			n.Send(b, seqEnv(a, i))
		}
	}()
	for i := 0; i < msgs; i++ {
		if got := seqOf(recvWithin(t, inboxB, 5*time.Second, "ordered stream")); got != i {
			t.Fatalf("message %d delivered at position %d", got, i)
		}
	}
}

// TestReplicaIsOneFIFOServer extends TestProcessingTimeCapsThroughput to
// fan-in: N messages from several senders into one replica take at least
// N × ProcessingTime, and a send the replica issues meanwhile queues behind
// the work that has arrived so far — not behind work still to arrive.
func TestReplicaIsOneFIFOServer(t *testing.T) {
	const (
		pt      = time.Millisecond
		senders = 4
		each    = 25
	)
	n := New(Config{ProcessingTime: pt}, locateAll)
	defer n.Close()
	dst, peer := types.NodeID(0), types.NodeID(99)
	inbox := n.Register(dst)
	inPeer := n.Register(peer)

	start := time.Now()
	for i := 0; i < each; i++ {
		for s := 1; s <= senders; s++ {
			n.Send(dst, seqEnv(types.NodeID(s), i))
		}
	}
	// Ten of the hundred have been served when dst sends.
	for i := 0; i < 10; i++ {
		recvWithin(t, inbox, time.Second, "fan-in")
	}
	n.Send(peer, seqEnv(dst, 0))
	got, ownAt := 10, time.Duration(0)
	for got < senders*each || ownAt == 0 {
		select {
		case <-inbox:
			got++
		case <-inPeer:
			ownAt = time.Since(start)
		case <-time.After(2 * time.Second):
			t.Fatalf("stalled with %d of %d delivered", got, senders*each)
		}
	}
	total := time.Since(start)
	if total < senders*each*pt {
		t.Fatalf("%d messages into one replica took %v, want ≥ %v", senders*each, total, senders*each*pt)
	}
	// Each sender's core paces it at one message per pt, so about 4×10 had
	// arrived when dst sent; its send waits for those and no more.
	if ownAt < 10*pt || ownAt > total-20*pt {
		t.Fatalf("replica's own send landed at %v of a %v run; want it interleaved with its receives", ownAt, total)
	}
}

// TestDuplicatesExemptFromLinkOrder: a duplicate trails its original by one
// more propagation delay and neither waits for the link's order nor holds
// later messages back.
func TestDuplicatesExemptFromLinkOrder(t *testing.T) {
	n, a, b, inboxB := twoNodes(Config{CrossClusterLatency: 20 * time.Millisecond, DupProb: 1})
	defer n.Close()
	for i := 0; i < 3; i++ {
		n.Send(b, seqEnv(a, i))
	}
	var got []int
	for len(got) < 6 {
		got = append(got, seqOf(recvWithin(t, inboxB, time.Second, "duplicates")))
	}
	for i, want := range []int{0, 1, 2, 0, 1, 2} {
		if got[i] != want {
			t.Fatalf("delivery order %v, want originals 0 1 2 then duplicates 0 1 2", got)
		}
	}
}

// TestNearSendWakesDispatcherFromFarWait: while the only queued event is
// far in the future the dispatcher sleeps on a timer; a short-delay send must
// interrupt that sleep.
func TestNearSendWakesDispatcherFromFarWait(t *testing.T) {
	const slow = 400 * time.Millisecond
	n := slowFastNet(slow)
	defer n.Close()
	far, near, dst := types.NodeID(1), types.NodeID(2), types.NodeID(0)
	inbox := n.Register(dst)

	n.Send(dst, seqEnv(far, 0))
	time.Sleep(20 * time.Millisecond) // let the dispatcher settle into its timer
	start := time.Now()
	n.Send(dst, seqEnv(near, 1))
	if env := recvWithin(t, inbox, slow/2, "near message"); env.From != near {
		t.Fatalf("first delivery is from %v, want %v", env.From, near)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("near message took %v behind a sleeping dispatcher", d)
	}
}

// lossPattern sends `each` numbered messages on every link of a 3 → 2 mesh
// under 30% loss and returns which of them arrived, per link. concurrent
// picks one goroutine per sender or one loop over all of them.
func lossPattern(t *testing.T, seed int64, concurrent bool) map[[2]types.NodeID][]int {
	t.Helper()
	const each = 200
	senders := []types.NodeID{10, 11, 12}
	receivers := []types.NodeID{0, 1}
	n := New(Config{DropProb: 0.3, Seed: seed}, locateAll)
	defer n.Close()
	inboxes := make(map[types.NodeID]<-chan *types.Envelope)
	for _, r := range receivers {
		inboxes[r] = n.Register(r)
	}
	send := func(s types.NodeID) {
		for i := 0; i < each; i++ {
			for _, r := range receivers {
				n.Send(r, seqEnv(s, i))
			}
		}
	}
	if concurrent {
		var wg sync.WaitGroup
		for _, s := range senders {
			wg.Add(1)
			go func(s types.NodeID) { defer wg.Done(); send(s) }(s)
		}
		wg.Wait()
	} else {
		for _, s := range senders {
			send(s)
		}
	}
	st := n.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Delivered.Load()+st.Dropped.Load() < st.Sent.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("sent %d, delivered %d, dropped %d", st.Sent.Load(), st.Delivered.Load(), st.Dropped.Load())
		}
		time.Sleep(time.Millisecond)
	}
	got := make(map[[2]types.NodeID][]int)
	for r, ch := range inboxes {
		for len(ch) > 0 {
			env := <-ch
			key := [2]types.NodeID{env.From, r}
			got[key] = append(got[key], seqOf(env))
		}
	}
	return got
}

// TestLinkFaultsDependOnSeedAndLinkAlone: which messages a link loses, and
// the jitter it draws, are a function of Config.Seed and the link, whatever
// order goroutines reach the fabric in.
func TestLinkFaultsDependOnSeedAndLinkAlone(t *testing.T) {
	serial := lossPattern(t, 7, false)
	racing := lossPattern(t, 7, true)
	other := lossPattern(t, 8, false)
	if len(serial) != 6 {
		t.Fatalf("%d links delivered traffic, want 6", len(serial))
	}
	sameAsOtherSeed, sameAsNeighbour := 0, 0
	var prev []int
	for link, want := range serial {
		if len(want) < 100 || len(want) > 180 {
			t.Fatalf("link %v delivered %d of 200 under 30%% loss", link, len(want))
		}
		if !slices.Equal(racing[link], want) {
			t.Fatalf("link %v: loss pattern changed with goroutine interleaving", link)
		}
		if slices.Equal(other[link], want) {
			sameAsOtherSeed++
		}
		if slices.Equal(prev, want) {
			sameAsNeighbour++
		}
		prev = want
	}
	if sameAsOtherSeed > 0 || sameAsNeighbour > 0 {
		t.Fatalf("loss patterns repeat: %d links unchanged by the seed, %d equal to another link", sameAsOtherSeed, sameAsNeighbour)
	}

	draws := func(seed int64, from, to types.NodeID) []time.Duration {
		n := New(Config{IntraClusterLatency: time.Millisecond, Seed: seed}, locateAll)
		defer n.Close()
		l := n.link(from, to)
		out := make([]time.Duration, 50)
		for i := range out {
			out[i] = l.propagation(0.2)
		}
		return out
	}
	base := draws(7, 1, 2)
	for i, d := range base {
		if d < time.Millisecond || d >= 1200*time.Microsecond {
			t.Fatalf("draw %d = %v, want within [1ms, 1.2ms)", i, d)
		}
	}
	if !slices.Equal(base, draws(7, 1, 2)) {
		t.Fatal("jitter sequence of one link differs between two networks with one seed")
	}
	if slices.Equal(base, draws(7, 2, 1)) || slices.Equal(base, draws(8, 1, 2)) {
		t.Fatal("jitter sequence does not depend on the link direction or the seed")
	}
}
