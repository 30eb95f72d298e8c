package tcpnet

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"sharper/internal/crypto"
	"sharper/internal/types"
)

var testSecret = crypto.WireKey("tcpnet-test")

func waitEnvelope(t *testing.T, ch <-chan *types.Envelope, timeout time.Duration) *types.Envelope {
	t.Helper()
	select {
	case env := <-ch:
		return env
	case <-time.After(timeout):
		t.Fatalf("no envelope within %s", timeout)
		return nil
	}
}

// twoNodes builds two listening fabrics that know each other's addresses.
func twoNodes(t *testing.T) (*Net, *Net) {
	t.Helper()
	fabs, client, err := Loopback([]types.NodeID{0, 1}, testSecret, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	t.Cleanup(func() {
		fabs[0].Close()
		fabs[1].Close()
	})
	return fabs[0], fabs[1]
}

func TestSendBetweenFabrics(t *testing.T) {
	a, b := twoNodes(t)
	a.Register(0)
	inbox := b.Register(1)

	payload := []byte("over the wire")
	a.Send(1, &types.Envelope{Type: types.MsgRequest, From: 0, Payload: payload, Sig: []byte{9, 9}})
	env := waitEnvelope(t, inbox, 5*time.Second)
	if env.Type != types.MsgRequest || env.From != 0 || string(env.Payload) != string(payload) || len(env.Sig) != 2 {
		t.Fatalf("envelope corrupted in transit: %+v", env)
	}

	// And the reverse direction over b's own dialed connection.
	b.Send(0, &types.Envelope{Type: types.MsgReply, From: 1})
	if env := waitEnvelope(t, a.Register(0), 5*time.Second); env.Type != types.MsgReply {
		t.Fatalf("reverse envelope: %+v", env)
	}
}

func TestLocalDelivery(t *testing.T) {
	a, _ := twoNodes(t)
	inbox := a.Register(0)
	a.Send(0, &types.Envelope{Type: types.MsgCommit, From: 0})
	if env := waitEnvelope(t, inbox, time.Second); env.Type != types.MsgCommit {
		t.Fatalf("local delivery: %+v", env)
	}
}

// TestClientReturnRoute covers the reply path the crash-model protocol
// needs: the client dials a replica, and the replica reaches the client
// without the client appearing in any peer table.
func TestClientReturnRoute(t *testing.T) {
	fabs, clientFab, err := Loopback([]types.NodeID{0}, testSecret, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fabs[0].Close()
		clientFab.Close()
	})
	replicaInbox := fabs[0].Register(0)
	clientID := types.ClientIDBase + 7
	clientInbox := clientFab.Register(clientID)
	if err := clientFab.ConnectAll(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	clientFab.Send(0, &types.Envelope{Type: types.MsgRequest, From: clientID})
	if env := waitEnvelope(t, replicaInbox, 5*time.Second); env.From != clientID {
		t.Fatalf("request from %s", env.From)
	}
	fabs[0].Send(clientID, &types.Envelope{Type: types.MsgReply, From: 0})
	if env := waitEnvelope(t, clientInbox, 5*time.Second); env.Type != types.MsgReply {
		t.Fatalf("reply: %+v", env)
	}
}

// TestTCPReturnQueueOnlyWhereRouted: a connection gets a return-route queue
// and its writer only when a dynamic sender's route is learned through it.
// With two replicas and a client all connected, the replicas' connections to
// each other hold no queue — and the inbound ones no write buffer either —
// while the client's connection to the replica that replies holds both, and
// the reply arrives.
func TestTCPReturnQueueOnlyWhereRouted(t *testing.T) {
	fabs, clientFab, err := Loopback([]types.NodeID{0, 1}, testSecret, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fabs[0].Close()
		fabs[1].Close()
		clientFab.Close()
	})
	replicaInbox := fabs[0].Register(0)
	fabs[1].Register(1)
	clientID := types.ClientIDBase + 3
	clientInbox := clientFab.Register(clientID)
	for _, f := range []*Net{fabs[0], fabs[1], clientFab} {
		if err := f.ConnectAll(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	clientFab.Send(0, &types.Envelope{Type: types.MsgRequest, From: clientID})
	if env := waitEnvelope(t, replicaInbox, 5*time.Second); env.From != clientID {
		t.Fatalf("request from %s", env.From)
	}
	fabs[0].Send(clientID, &types.Envelope{Type: types.MsgReply, From: 0})
	if env := waitEnvelope(t, clientInbox, 5*time.Second); env.Type != types.MsgReply {
		t.Fatalf("reply: %+v", env)
	}

	for id, f := range fabs {
		f.mu.RLock()
		routed := make(map[*wireConn]bool)
		for _, wc := range f.routes {
			routed[wc] = true
		}
		if id == 0 && len(routed) == 0 {
			t.Error("replica 0 learned no route to the client")
		}
		for wc := range f.conns {
			if routed[wc] != (wc.out != nil) {
				t.Errorf("replica %d: connection (inbound %v, routed %v) has return queue %v",
					id, wc.inbound, routed[wc], wc.out != nil)
			}
			wc.wmu.Lock()
			if wc.inbound && !routed[wc] && wc.w != nil {
				t.Errorf("replica %d: inbound connection that never wrote holds a write buffer", id)
			}
			wc.wmu.Unlock()
		}
		f.mu.RUnlock()
	}
}

// TestForgedFrameRejected sends a well-formed frame with a bad HMAC tag and
// a garbage blob, directly over a raw TCP connection: neither may reach the
// inbox, and authentic traffic afterwards still flows.
func TestForgedFrameRejected(t *testing.T) {
	fabs, clientFab, err := Loopback([]types.NodeID{0}, testSecret, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fabs[0].Close()
		clientFab.Close()
	})
	inbox := fabs[0].Register(0)

	// Forge: correct structure, wrong key.
	attacker, err := New(Config{Peers: map[types.NodeID]string{0: fabs[0].Addr()}, Secret: crypto.WireKey("wrong")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(attacker.Close)
	attacker.Send(0, &types.Envelope{Type: types.MsgRequest, From: 99})

	// Garbage: random bytes with a plausible length prefix.
	raw, err := net.Dial("tcp", fabs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 4+64)
	binary.LittleEndian.PutUint32(blob, 64)
	for i := range blob[4:] {
		blob[4+i] = byte(i * 7)
	}
	raw.Write(blob)
	raw.Close()

	select {
	case env := <-inbox:
		t.Fatalf("unauthenticated envelope delivered: %+v", env)
	case <-time.After(300 * time.Millisecond):
	}

	clientFab.Register(types.ClientIDBase + 1)
	clientFab.Send(0, &types.Envelope{Type: types.MsgRequest, From: types.ClientIDBase + 1})
	if env := waitEnvelope(t, inbox, 5*time.Second); env.From != types.ClientIDBase+1 {
		t.Fatalf("authentic traffic blocked: %+v", env)
	}
}

// TestReconnectAfterPeerRestart drops a peer's listener mid-run and brings a
// new fabric up on the same address: the sender's backoff loop must
// reconnect and deliver fresh traffic without any intervention.
func TestReconnectAfterPeerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	peers := map[types.NodeID]string{1: addr}

	b1, err := New(Config{Self: 1, Listener: ln, Peers: peers, Secret: testSecret})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Self: 0, Peers: peers, Secret: testSecret})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	a.Register(0)

	inbox1 := b1.Register(1)
	a.Send(1, &types.Envelope{Type: types.MsgRequest, From: 0, Payload: []byte("one")})
	waitEnvelope(t, inbox1, 5*time.Second)

	b1.Close() // peer dies: connection breaks, sender starts redialing

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	b2, err := New(Config{Self: 1, Listener: ln2, Peers: peers, Secret: testSecret})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b2.Close)
	inbox2 := b2.Register(1)

	// The sender's queue may drop messages while disconnected (the fabric is
	// lossy, like the simulated one); keep sending until one lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.Send(1, &types.Envelope{Type: types.MsgRequest, From: 0, Payload: []byte("two")})
		select {
		case env := <-inbox2:
			if string(env.Payload) == "two" {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after peer restart")
		}
	}
}

// TestOversizedFramePoisonsConnection verifies a hostile length prefix
// cannot make the receiver allocate unboundedly: the connection is dropped.
func TestOversizedFramePoisonsConnection(t *testing.T) {
	fabs, clientFab, err := Loopback([]types.NodeID{0}, testSecret, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fabs[0].Close()
		clientFab.Close()
	})
	inbox := fabs[0].Register(0)

	raw, err := net.Dial("tcp", fabs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<31)
	raw.Write(huge[:])
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("connection survived an oversized length prefix")
	}
	raw.Close()

	select {
	case env := <-inbox:
		t.Fatalf("unexpected delivery: %+v", env)
	default:
	}
}

func TestCloseDropsSends(t *testing.T) {
	a, b := twoNodes(t)
	b.Register(1)
	a.Close()
	before := a.Stats().Dropped.Load()
	a.Send(1, &types.Envelope{Type: types.MsgRequest, From: 0})
	if got := a.Stats().Dropped.Load(); got != before+1 {
		t.Fatalf("send after close: dropped %d → %d", before, got)
	}
}

// TestTCPClientChurnLeavesNoWriter: a client connection that sent a hello
// gets a return-route writer; when the client goes away, the writer must go
// with the connection. A thousand connect/hello/reply/close cycles leave the
// replica's goroutine count, tracked connections and learned routes where
// they started.
func TestTCPClientChurnLeavesNoWriter(t *testing.T) {
	const cycles = 1000
	fabs, spare, err := Loopback([]types.NodeID{0}, testSecret, nil)
	if err != nil {
		t.Fatal(err)
	}
	spare.Close()
	replica := fabs[0]
	t.Cleanup(replica.Close)
	replicaInbox := replica.Register(0)
	tracked := func() (conns, routes int) {
		replica.mu.RLock()
		defer replica.mu.RUnlock()
		return len(replica.conns), len(replica.routes)
	}
	baseline := runtime.NumGoroutine()
	baseConns, baseRoutes := tracked()

	for i := 0; i < cycles; i++ {
		client, err := New(Config{Peers: map[types.NodeID]string{0: replica.Addr()}, Secret: testSecret})
		if err != nil {
			t.Fatal(err)
		}
		clientID := types.ClientIDBase + types.NodeID(i)
		clientInbox := client.Register(clientID)
		client.Send(0, &types.Envelope{Type: types.MsgRequest, From: clientID})
		waitEnvelope(t, replicaInbox, 5*time.Second)
		replica.Send(clientID, &types.Envelope{Type: types.MsgReply, From: 0})
		waitEnvelope(t, clientInbox, 5*time.Second)
		client.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		conns, routes := tracked()
		if runtime.NumGoroutine() <= baseline && conns <= baseConns && routes <= baseRoutes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d client cycles: %d goroutines (baseline %d), %d connections (%d), %d routes (%d)",
				cycles, runtime.NumGoroutine(), baseline, conns, baseConns, routes, baseRoutes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
