//go:build !linux

package transport

import "time"

// waiter is the dispatcher's sleep where there is no eventfd/ppoll: a Go
// timer and a one-token channel. It is coarse — the runtime rounds a
// sub-millisecond wait up to about a millisecond — so off Linux a sleep toward
// a head past the spin floor can deliver up to ~1 ms late (DESIGN.md "How the
// dispatcher waits").
type waiter struct{ ch chan struct{} }

func newWaiter() waiter { return waiter{ch: make(chan struct{}, 1)} }

// sleep blocks until wake is called or d has passed (d < 0: until wake). It
// may return early, on a wake posted during an earlier sleep.
func (w waiter) sleep(d time.Duration) {
	if d < 0 {
		<-w.ch
		return
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-w.ch:
		t.Stop()
	}
}

// wake ends the current sleep, or the next one if none is in progress.
func (w waiter) wake() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

func (w waiter) close() {}
