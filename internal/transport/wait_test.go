package transport

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sharper/internal/types"
)

// The tests in this file pin how the dispatcher waits (DESIGN.md "How the
// dispatcher waits"): it is woken by every push that becomes the new head and
// by Close, and leaves nothing behind. That it sleeps instead of spinning,
// and wakes punctually, is in wait_timing_test.go.

// openFDs counts the process's open file descriptors, or returns -1 where
// /proc/self/fd does not exist.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// settles polls until the goroutine and descriptor counts are back at the
// baseline, reporting the last counts it saw if they do not get there.
func settles(goroutines, fds int) (int, int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if g <= goroutines && f <= fds {
			return g, f, true
		}
		if time.Now().After(deadline) {
			return g, f, false
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseWakesSleepingDispatcher: Close reaches a dispatcher asleep on an
// empty queue and one asleep toward a head an hour away, returns promptly,
// and leaves neither the dispatcher nor its wait descriptor behind.
func TestCloseWakesSleepingDispatcher(t *testing.T) {
	for _, tc := range []struct {
		name string
		head bool
	}{{"empty queue", false}, {"far head", true}} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs()
			n, a, b, _ := twoNodes(Config{CrossClusterLatency: time.Hour})
			if tc.head {
				n.Send(b, seqEnv(a, 0))
			}
			time.Sleep(20 * time.Millisecond) // let the dispatcher fall asleep
			start := time.Now()
			n.Close()
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Fatalf("Close took %v with the dispatcher asleep", d)
			}
			if g, f, ok := settles(goroutines, fds); !ok {
				t.Fatalf("after Close: %d goroutines (was %d), %d open descriptors (was %d)", g, goroutines, f, fds)
			}
		})
	}
}

// TestNewCloseLeaksNothing: a thousand fabrics built and closed, half of them
// with a message still in flight, leave the goroutine and descriptor counts
// where they were.
func TestNewCloseLeaksNothing(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	for i := 0; i < 1000; i++ {
		n, a, b, _ := twoNodes(Config{CrossClusterLatency: time.Millisecond})
		if i%2 == 1 {
			n.Send(b, seqEnv(a, i))
		}
		n.Close()
	}
	if g, f, ok := settles(goroutines, fds); !ok {
		t.Fatalf("after 1000 New/Close cycles: %d goroutines (was %d), %d open descriptors (was %d)", g, goroutines, f, fds)
	}
}

// TestPushRacingSleepIsNeverLost: a push that becomes the new head while the
// dispatcher is on its way into a sleep must wake it. Pairs of endpoints
// ping-pong, so each reply is pushed just as the dispatcher, having delivered
// the request, goes back to sleep — on an empty queue, or toward a head an
// hour away. A lost wake-up strands the reply for that hour, or for ever.
// Links of 0 µs make the reply due at once; 60 µs ones put it past the spin
// floor, so it replaces the head of a real sleep.
func TestPushRacingSleepIsNeverLost(t *testing.T) {
	const rounds = 300
	for _, link := range []time.Duration{0, 60 * time.Microsecond} {
		for _, far := range []bool{false, true} {
			for _, pairs := range []int{1, 3} {
				name := fmt.Sprintf("link=%v/far=%v/pairs=%d", link, far, pairs)
				t.Run(name, func(t *testing.T) {
					n, a, b, _ := twoNodes(Config{IntraClusterLatency: link, CrossClusterLatency: time.Hour})
					defer n.Close()
					if far {
						n.Send(b, seqEnv(a, 0)) // cross-cluster: due in an hour
					}
					errs := make(chan error, 2*pairs)
					for p := 0; p < pairs; p++ {
						// Even IDs share cluster 0, so pairs talk over the intra link.
						ping, pong := types.NodeID(2+4*p), types.NodeID(4+4*p)
						inPing, inPong := n.Register(ping), n.Register(pong)
						play := func(self, peer types.NodeID, in <-chan *types.Envelope, serve bool) {
							for i := 0; i < rounds; i++ {
								if serve {
									n.Send(peer, seqEnv(self, i))
								}
								select {
								case <-in:
								case <-time.After(5 * time.Second):
									errs <- fmt.Errorf("%v: round %d never arrived", self, i)
									return
								}
								if !serve {
									n.Send(peer, seqEnv(self, i))
								}
							}
							errs <- nil
						}
						go play(ping, pong, inPing, true)
						go play(pong, ping, inPong, false)
					}
					for i := 0; i < 2*pairs; i++ {
						if err := <-errs; err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}
