//go:build !race

package transport

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// The two tests in this file assert on CPU share and wake-up lateness, which
// the race runtime inflates several-fold (30 % CPU and a 50 µs median here
// under -race), so they run only without it, like the allocation tests.

// idleStream sends 400 messages over a 100 µs link whose sender's core
// (ProcessingTime 500 µs) spaces them 500 µs apart, so the dispatcher always
// has a head 500 µs away and nothing else to do. It returns the process CPU
// spent per second of wall time over the stream and each message's lateness,
// at the consumer, against its modelled delivery instant.
func idleStream(t *testing.T) (cpuShare float64, late []time.Duration) {
	t.Helper()
	const msgs, pt = 400, 500 * time.Microsecond
	n, a, b, inbox := twoNodes(Config{CrossClusterLatency: 100 * time.Microsecond, ProcessingTime: pt})
	defer n.Close()
	got := make([]time.Duration, msgs)
	deadline := time.After(10 * time.Second)
	wall, cpu := time.Now(), processCPU()
	for i := 0; i < msgs; i++ {
		n.Send(b, seqEnv(a, i))
	}
	for i := range got {
		select {
		case <-inbox:
			got[i] = n.now()
		case <-deadline:
			t.Fatalf("stream stalled after %d of %d messages", i, msgs)
		}
	}
	cpuShare = float64(processCPU()-cpu) / float64(time.Since(wall))
	// Both cores stay saturated, so delivery instants are exactly pt apart
	// and the receiver's core clock ends on the last of them.
	dst := n.endpoint(b)
	dst.mu.Lock()
	due := dst.coreFree - time.Duration(msgs-1)*pt
	dst.mu.Unlock()
	for _, at := range got {
		late = append(late, at-due)
		due += pt
	}
	return cpuShare, late
}

// TestIdleFabricDoesNotSpin: a fabric whose next event is 500 µs away sleeps
// toward it. A dispatcher that spins toward every head within a horizon of
// milliseconds keeps one core busy for the whole stream (≈ 100 % here).
func TestIdleFabricDoesNotSpin(t *testing.T) {
	share, _ := idleStream(t)
	t.Logf("process CPU over the stream: %.1f %% of wall time", 100*share)
	if share >= 0.25 {
		t.Fatalf("process CPU is %.0f %% of wall time while the fabric waits 500 µs per message, want < 25 %%", 100*share)
	}
}

// TestSleepingDispatcherIsPunctual: sleeping instead of spinning must not make
// deliveries late. The median message reaches its consumer within 50 µs of
// its modelled instant.
func TestSleepingDispatcherIsPunctual(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("only Linux has the high-resolution wait; elsewhere the dispatcher sleeps on a coarse Go timer")
	}
	_, late := idleStream(t)
	slices.Sort(late)
	p50, p90 := late[len(late)/2], late[len(late)*9/10]
	t.Logf("lateness against the modelled instant: p50 %v, p90 %v", p50, p90)
	if p50 > 50*time.Microsecond {
		t.Fatalf("median delivery %v late, want ≤ 50µs", p50)
	}
}
