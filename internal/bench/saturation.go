package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"sharper/internal/core"
	"sharper/internal/types"
)

// SaturationPoint is one rung of the offered-load ladder, shaped for the
// machine-readable BENCH_saturation.json.
type SaturationPoint struct {
	// OfferedFrac is the target fraction of the closed-loop reference
	// throughput this rung offered.
	OfferedFrac float64 `json:"offered_frac"`
	// OfferedTx is the realized arrival rate over the measurement window.
	OfferedTx    float64 `json:"offered_tx_per_sec"`
	ThroughputTx float64 `json:"tx_per_sec"`
	AvgLatencyMs float64 `json:"ms_per_tx"`
	P50LatencyMs float64 `json:"p50_ms"`
	P99LatencyMs float64 `json:"p99_ms"`
	// Shed counts submits refused by admission control (Overloaded/Expired)
	// plus arrivals dropped at the harness's in-flight cap.
	Shed   int64 `json:"shed"`
	Errors int64 `json:"errors"`
}

// SaturationResult is one fabric × batch-size saturation curve: the latency
// vs offered load ladder, anchored to the closed-loop reference measured on
// the same deployment.
type SaturationResult struct {
	// Fabric is "sim" (the modelled in-process network) or "tcp" (real
	// loopback sockets).
	Fabric    string `json:"fabric"`
	BatchSize int    `json:"batch_size"`
	// ClosedLoopTx is the closed-loop throughput, through the same gateways,
	// that the ladder's offered rates are fractions of.
	ClosedLoopTx float64 `json:"closed_loop_tx_per_sec"`
	// Knee is the highest offered rate still served at ≥90% goodput; past it
	// latency climbs and admission control sheds.
	KneeOfferedTx    float64 `json:"knee_offered_tx_per_sec"`
	KneeThroughputTx float64 `json:"knee_tx_per_sec"`
	// GatewayVsClosedPct is knee goodput as a percentage of the closed-loop
	// reference: how much of what self-pacing clients get out of the system
	// an open loop sustains before admission control has to shed.
	GatewayVsClosedPct float64           `json:"gateway_vs_closed_pct"`
	Points             []SaturationPoint `json:"points"`
}

// AblationSaturation measures the client-ingress plane under open-loop load:
// for each fabric × batch size it takes a closed-loop reference, then offers
// Poisson arrivals at increasing fractions of that reference. Closed-loop clients adapt their
// arrival rate to the system (each waits for its reply), so they can never
// show the saturation knee; the open loop keeps offering, so past the knee
// the latency column climbs and the shed column goes non-zero — that is the
// admission-control behaviour under test. The same deployment serves the
// reference and the whole ladder (rungs ascend, so overload only pollutes the
// tail), and gateway issuers are registered once and reused across rungs.
func AblationSaturation(w io.Writer, o FigureOptions) []SaturationResult {
	o.fill()
	const clusters, f = 4, 1
	const crossPct = 0
	fracs := []float64{0.25, 0.5, 0.75, 0.9, 1.0, 1.2, 1.5}
	clients := 64
	inflight := 256
	opts := Options{Warmup: 500 * time.Millisecond, Measure: 1500 * time.Millisecond}
	if o.Quick {
		fracs = []float64{0.5, 1.0, 1.5}
		clients = 24
		inflight = 96
		opts = o.bench()
	}

	var results []SaturationResult
	for _, fabric := range []struct {
		name string
		kind core.TransportKind
	}{{"sim", core.TransportSim}, {"tcp", core.TransportTCP}} {
		for _, bs := range []int{1, 16} {
			gen := workloadFor(clusters, crossPct, o)
			d, err := core.NewDeployment(core.Config{
				Model: types.CrashOnly, Clusters: clusters, F: f,
				Seed: o.Seed, BatchSize: bs, Transport: fabric.kind,
				NoPersist: true,
			})
			if err != nil {
				fmt.Fprintf(w, "# saturation %s/batch-%d: deployment failed: %v\n", fabric.name, bs, err)
				continue
			}
			d.SeedAccounts(o.AccountsPerShard, seedBalance)
			d.Start()

			// Closed-loop reference.
			ref := Run(SharPerSystem{D: d}, gen, clients, opts)
			r := SaturationResult{
				Fabric: fabric.name, BatchSize: bs,
				ClosedLoopTx: ref.ThroughputTx,
			}
			fmt.Fprintf(w, "# saturation %s/batch-%d closed-loop reference: %.0f tx/s\n",
				fabric.name, bs, ref.ThroughputTx)

			// Gateway issuer pool: registered once, reused for every rung.
			gw := SharPerSystem{D: d, Timeout: time.Second, MaxAttempts: 2}
			issuers := make([]OpenLoopIssuer, inflight)
			for i := range issuers {
				issuers[i] = gw.NewOpenIssuer()
			}
			for ri, frac := range fracs {
				rate := ref.ThroughputTx * frac
				if rate < 1 {
					rate = 1
				}
				pt := RunOpenLoop(issuers, gen, rate, o.Seed+int64(ri), opts)
				sp := SaturationPoint{
					OfferedFrac:  frac,
					OfferedTx:    pt.OfferedTx,
					ThroughputTx: pt.ThroughputTx,
					AvgLatencyMs: pt.AvgLatencyMs,
					P50LatencyMs: pt.P50LatencyMs,
					P99LatencyMs: pt.P99LatencyMs,
					Shed:         pt.Shed,
					Errors:       pt.Errors,
				}
				r.Points = append(r.Points, sp)
				if pt.OfferedTx > 0 && pt.ThroughputTx >= 0.9*pt.OfferedTx {
					r.KneeOfferedTx = pt.OfferedTx
					r.KneeThroughputTx = pt.ThroughputTx
				}
				fmt.Fprintf(w, "%-4s batch=%-2d offered=%7.0f tx/s (%.2fx)  goodput=%7.0f tx/s  p50=%7.2fms p99=%7.2fms  shed=%-6d errs=%d\n",
					fabric.name, bs, pt.OfferedTx, frac, pt.ThroughputTx,
					pt.P50LatencyMs, pt.P99LatencyMs, pt.Shed, pt.Errors)
			}
			if r.ClosedLoopTx > 0 {
				r.GatewayVsClosedPct = 100 * r.KneeThroughputTx / r.ClosedLoopTx
			}
			fmt.Fprintf(w, "# saturation %s/batch-%d knee: %.0f tx/s offered → %.0f tx/s goodput (%.1f%% of closed loop)\n",
				fabric.name, bs, r.KneeOfferedTx, r.KneeThroughputTx, r.GatewayVsClosedPct)
			results = append(results, r)
			d.Stop()
			runtime.GC() // don't bill this deployment's garbage to the next
		}
	}
	return results
}
