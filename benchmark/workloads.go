package main

import "time"

// Every constant that shapes a run lives in this file. They were calibrated
// once (see README.md, "Calibration") and are not tuned per commit.

const (
	accountsPerShard = 1024
	// seedBalance is large enough that no transfer of the run can overdraw:
	// a rejected verdict is therefore always a failure.
	seedBalance = int64(1) << 40

	// Client retransmission policy: offer the submit to the next member(s)
	// of the target cluster every resendEvery, give up after abandonAfter.
	resendEvery  = 500 * time.Millisecond
	abandonAfter = 5 * time.Second

	// openCap is the most requests an open phase keeps outstanding. Requests
	// that fall due beyond it wait in the driver, timed from their due
	// instants all the same. In a quiet run 5 to 30 are outstanding and a
	// 50 ms host stall adds 200, so the cap binds only when the host takes
	// the CPU away for longer; it then keeps the backlog out of the system,
	// where it was seen to feed on itself (README.md, finding 10).
	openCap = 256

	// sampleEvery is the cadence of the goodput / CPU sampler. goodput_tps
	// and cpu_ms_per_tx are medians over these intervals, which keeps one
	// burst of hypervisor steal from moving the whole run's number.
	sampleEvery = 500 * time.Millisecond

	// setupRounds is how many times a run builds, seeds and starts the
	// deployment and waits for its first committed verdict; setup_s is the
	// median. The last round's deployment is the one measured.
	setupRounds = 25

	// Noise guard thresholds: a run beyond either is flagged, not dropped.
	noisySteal  = 0.10
	noisyLateMs = 20.0
)

// Phase lengths as shares of --seconds. The untraced run spends all of it on
// the two timed phases; the traced run repeats the closed phase with the
// driver's span recorder on (the difference is trace.overhead_share) and
// then runs the layer probes, which make a fixed number of calls (about 3 s).
// Warm-up is extra in both.
const (
	warmupShare = 0.10

	closedShare = 0.45
	openShare   = 0.55

	tracedRefShare    = 0.15 // scaleout_crash only: the 2-cluster reference
	tracedClosedShare = 0.20 // twice: recorder off, then on
	tracedOpenShare   = 0.30

	// crashAt and restartAt are when, as shares of its open phase,
	// wan_failover loses cluster 0's home gateway and gets it back.
	crashAt   = 0.30
	restartAt = 0.55
)

type fabricKind int

const (
	fabricSimLAN fabricKind = iota // transport.DefaultConfig: 100/200 µs links, 15 µs per message
	fabricSimWAN                   // transport.Multiregion: 0.5 ms intra, 30 ms / 200 Mbps between clusters, 1 ms client
	fabricTCP                      // tcpnet over loopback
)

// workload is one set of inputs and the deployment they run against.
type workload struct {
	name      string
	why       string
	byzantine bool
	clusters  int
	fabric    fabricKind
	batch     int
	// crossOpen and crossClosed are the cross-shard transactions per thousand
	// in the open phase (and the warm-up) and in the closed phase.
	crossOpen, crossClosed int
	durable                bool // DataDir + SyncGroup
	window                 int  // closed phase: outstanding requests
	openRate               int  // open phase: requests due per second
	crash                  bool // crash cluster 0's primary crashAt into the open phase
	// refClusters, when set, is the size of the reference deployment the
	// traced run measures first (same settings, refWindow outstanding) for
	// driver.scaleout_ratio.
	refClusters, refWindow int
}

// workloads are the four the benchmark runs, all with f = 1.
var workloads = []workload{
	{
		name:     "scaleout_crash",
		why:      "paper's headline curve at batch 1: per-message cost in types, paxos, transport, mempool; crypto, storage, tcpnet idle",
		clusters: 8, fabric: fabricSimLAN, batch: 1, crossOpen: 100, crossClosed: 100,
		window: 64, openRate: 4000,
		refClusters: 2, refWindow: 16,
	},
	{
		name:      "byz_intra",
		why:       "Byzantine 4x4 with MAC authenticators, batch 16, no cross-shard: pbft, signing, the verify pool and batch verification do the work; storage, tcpnet idle",
		byzantine: true, clusters: 4, fabric: fabricSimLAN, batch: 16,
		window: 64, openRate: 4000,
	},
	{
		name:     "durable_tcp",
		why:      "crash 4x3 over loopback TCP, batch 16, WAL with group fsync: framing, frame tags, sockets, chain log, group commit, executor; no cross-shard, no signatures",
		clusters: 4, fabric: fabricTCP, batch: 16, durable: true,
		window: 32, openRate: 2500,
	},
	{
		name:     "wan_failover",
		why:      "30 ms inter-cluster links, a gateway crash and its restart in the open phase, 0.2% cross in the closed one: round-trip-bound latency, client failover, chain sync, cross-shard locks; least CPU-bound",
		clusters: 4, fabric: fabricSimWAN, batch: 16, crossClosed: 2,
		window: 16, openRate: 200, crash: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// share is the length of a phase: its share of a run of `seconds`.
func share(seconds, of float64) time.Duration {
	return time.Duration(seconds * of * float64(time.Second))
}
