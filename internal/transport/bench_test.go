package transport

import (
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"sharper/internal/types"
)

// benchNet is the fabric the layer benchmarks run on: DefaultConfig, 24
// replicas in 8 clusters of 3.
func benchNet() (*Network, []types.NodeID, []<-chan *types.Envelope) {
	const nodes, perCluster = 24, 3
	n := New(DefaultConfig(), func(id types.NodeID) (types.ClusterID, bool) {
		return types.ClusterID(uint32(id) / perCluster), true
	})
	ids := make([]types.NodeID, nodes)
	inboxes := make([]<-chan *types.Envelope, nodes)
	for i := range ids {
		ids[i] = types.NodeID(i)
		inboxes[i] = n.Register(ids[i])
	}
	return n, ids, inboxes
}

// benchWindow bounds the messages a benchmark keeps outstanding, so the
// event queue stays about as deep as a loaded deployment's instead of
// holding the whole run.
const benchWindow = 1024

// benchEnvelopes is one 128-byte message per sender.
func benchEnvelopes(ids []types.NodeID) []*types.Envelope {
	envs := make([]*types.Envelope, len(ids))
	for i, id := range ids {
		envs[i] = &types.Envelope{From: id, Type: types.MsgRequest, Payload: make([]byte, 128)}
	}
	return envs
}

// BenchmarkSimSend pushes uniform all-to-all traffic through the fabric.
// ns/op is wall time per delivered message; each message occupies two
// modelled cores for ProcessingTime, so 24 replicas put a floor of
// 2×15µs/24 = 1250 ns under it, and a reading above the floor means Send,
// the dispatcher and the inboxes together could not keep 24 saturated
// replicas fed.
func BenchmarkSimSend(b *testing.B) {
	n, ids, inboxes := benchNet()
	defer n.Close()
	window := make(chan struct{}, benchWindow) // one token per outstanding message
	var delivered sync.WaitGroup
	delivered.Add(b.N)
	for _, ch := range inboxes {
		go func(ch <-chan *types.Envelope) {
			for {
				select {
				case <-ch:
					<-window
					delivered.Done()
				case <-n.done:
					return
				}
			}
		}(ch)
	}
	envs := benchEnvelopes(ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i % len(ids)
		window <- struct{}{}
		n.Send(ids[(from+1+i/len(ids)%(len(ids)-1))%len(ids)], envs[from])
	}
	delivered.Wait()
}

// BenchmarkSimFanIn drives 23 replicas into one, PBFT's vote pattern at its
// worst, keeping benchWindow messages outstanding so the receiver's core is
// saturated once the window has filled. The model then fixes every delivery
// instant — the k-th is due ProcessingTime after the (k-1)-th — so ns/op
// should read ProcessingTime, and late-ns/msg is how far behind that schedule
// messages reached the consumer, on average.
func BenchmarkSimFanIn(b *testing.B) {
	n, ids, inboxes := benchNet()
	defer n.Close()
	dst := n.endpoint(ids[0])
	envs := benchEnvelopes(ids)
	got := make([]time.Duration, b.N)
	window := make(chan struct{}, benchWindow) // one token per outstanding message
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range got {
			<-inboxes[0]
			got[i] = n.now()
			<-window
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window <- struct{}{}
		n.Send(ids[0], envs[1+i%(len(ids)-1)])
	}
	<-done
	b.StopTimer()
	// Every arrival has been charged, so coreFree is the last delivery's due
	// instant, and while the receiver stayed saturated the others precede it
	// at ProcessingTime intervals. That holds once the window has filled;
	// the trailing half of the run is what is scored.
	dst.mu.Lock()
	due := dst.coreFree
	dst.mu.Unlock()
	var late time.Duration
	scored := (b.N + 1) / 2
	for _, at := range got[b.N-scored:] {
		late += at - (due - time.Duration(scored-1)*n.cfg.ProcessingTime)
		due += n.cfg.ProcessingTime
	}
	b.ReportMetric(float64(late.Nanoseconds())/float64(scored), "late-ns/msg")
}

// processCPU is the CPU time, user plus system, the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkSimIdleHop ping-pongs one message between two endpoints over a
// 100 µs link on an otherwise idle fabric: the dispatcher always has exactly
// one head to wait for and nothing else to do, the regime of a WAN deployment
// between bursts. ns/op is wall time per hop; late-ns/hop is the median delay
// past the modelled delivery instant at which the consumer had the message;
// cpu-ns/hop is process CPU per hop, which a dispatcher that spins toward its
// head pays in full.
func BenchmarkSimIdleHop(b *testing.B) {
	const link = 100 * time.Microsecond
	n := New(Config{IntraClusterLatency: link}, locateAll)
	defer n.Close()
	ids := []types.NodeID{0, 1}
	inboxes := []<-chan *types.Envelope{n.Register(ids[0]), n.Register(ids[1])}
	envs := benchEnvelopes(ids)
	late := make([]time.Duration, b.N)
	b.ResetTimer()
	cpu := processCPU()
	for i := range late {
		from, to := i%2, 1-i%2
		sent := n.now()
		n.Send(ids[to], envs[from])
		<-inboxes[to]
		late[i] = n.now() - sent - link
	}
	cpu = processCPU() - cpu
	b.StopTimer()
	slices.Sort(late)
	b.ReportMetric(float64(late[len(late)/2].Nanoseconds()), "late-ns/hop")
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/hop")
}
