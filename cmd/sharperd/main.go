// Command sharperd runs SharPer. It has three modes:
//
// Single process (the quickest way to watch the system work) — build a full
// deployment in-process, on the simulated fabric or over real loopback TCP
// sockets, drive it with a configurable workload, and print live throughput
// plus a final ledger audit:
//
//	sharperd -model crash -clusters 4 -f 1 -cross 10 -clients 16 -duration 5s
//	sharperd -transport tcp -clusters 4 -f 1 -duration 5s
//
// The workload goes through the client-ingress plane — shard-routed submits
// into per-shard mempool gateways; admission sheds are counted and printed.
//
// Replica process — run ONE replica of a multi-process deployment described
// by a topology file (every process is started from the same file; node
// identity is derived from -listen or given with -node):
//
//	sharperd -topology topo.txt -listen 127.0.0.1:7100
//
// Client driver — attach to a running multi-process deployment, issue a
// mixed intra-/cross-shard workload, then fetch every cluster's chain over
// the sync protocol and audit the assembled DAG:
//
//	sharperd -topology topo.txt -drive -clients 16 -duration 5s
//
// Scaffold a topology file with -topology-init:
//
//	sharperd -topology topo.txt -topology-init -clusters 4 -f 1
//
// Every mode parses its flags into one core.Config; the single-process mode
// builds a deployment from it and a replica process its one replica.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/core"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/obs"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/transport/tcpnet"
	"sharper/internal/types"
	"sharper/internal/workload"
)

// options holds what sharperd's flags say besides the deployment's
// configuration: the workload a local run or a driver issues, the genesis
// accounts every replica seeds, and where diagnostics go.
type options struct {
	Clients  int
	CrossPct int
	Duration time.Duration
	ShowDAG  bool
	Accounts int
	Balance  int64

	// DriverIndex keeps the client IDs of several driver processes disjoint;
	// ConnectTimeout is how long a driver waits for the replicas to come up.
	DriverIndex    int
	ConnectTimeout time.Duration
	// TraceDir is where a failed wire audit dumps every replica's protocol
	// trace ring (one trace-node-<id>.log per replica).
	TraceDir string

	// MetricsAddr serves a replica's Prometheus-text /metrics on its own
	// listener; MetricsOnPprof also registers the endpoint on the
	// process-wide pprof mux.
	MetricsAddr    string
	MetricsOnPprof bool
}

// invocation is one parsed sharperd command line: the deployment's
// configuration, the run options, and which mode to run.
type invocation struct {
	cfg  core.Config
	opts options

	topoPath, listen, host, secret, shape, pprof string
	topoInit, drive                              bool
	node, basePort                               int
}

// parseFlags turns a sharperd command line into the one core.Config every
// mode builds from, plus everything that is not configuration.
func parseFlags(args []string) (*invocation, error) {
	fs := flag.NewFlagSet("sharperd", flag.ContinueOnError)
	inv := &invocation{}
	c, o := &inv.cfg, &inv.opts
	model := fs.String("model", "crash", "failure model: crash or byzantine")
	fs.IntVar(&c.Clusters, "clusters", 4, "number of clusters (= shards)")
	fs.IntVar(&c.F, "f", 1, "per-cluster fault bound")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed; every process of a deployment derives its keys from it")
	fs.IntVar(&c.BatchSize, "batch", 1, "max transactions per block (1 = the paper's single-tx blocks)")
	transportKind := fs.String("transport", "sim", "single-process fabric: sim or tcp")
	fs.StringVar(&c.DataDir, "data", "", "durable storage base directory (each replica uses DIR/node-<id>); a killed replica restarted with the same -data recovers in place")
	syncPolicy := fs.String("sync", "group", "WAL fsync policy: none, group, or always")
	fs.DurationVar(&c.LockTimeout, "lock-timeout", 0, "cross-shard lock expiry, the §3.2 'pre-determined time' (0 = default 3s); must dominate worst-case commit delivery in your environment")
	fs.BoolVar(&c.Slash, "slash", false, "arm the equivocation-detecting auditor on every replica; the driver and local modes print an offender report from the collected fraud proofs")
	fs.BoolVar(&c.Ed25519, "ed25519", false, "byzantine model: use ed25519 signatures instead of HMAC, making -slash fraud proofs verifiable by third parties holding only public keys")
	fs.StringVar(&inv.shape, "shape", "", "link shaping: 'multiregion' (the paper's cross-datacenter WAN) or a spec like 'delay 30ms bw 200Mbps loss 0.001' applied to every link; in topology modes it overrides the file's link directives, with -topology-init it is written into the file")
	fs.IntVar(&c.VerifyWindow, "verify-window", 0, "signature batch-verification window per node (1 = strictly per signature; 0 = the built-in default)")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "lifecycle-tracer 1-in-N sampling (0 = built-in default, 1 = trace everything)")
	fs.BoolVar(&c.Trace, "trace", false, "record every replica's protocol events into its trace ring; a replica prints its ring when it stops, and a driver's failed audit dumps them all")

	fs.IntVar(&o.CrossPct, "cross", 10, "percent cross-shard transactions")
	fs.IntVar(&o.Clients, "clients", 16, "closed-loop clients")
	fs.DurationVar(&o.Duration, "duration", 5*time.Second, "run length")
	fs.BoolVar(&o.ShowDAG, "dag", false, "print the ledger DAG at the end")
	fs.IntVar(&o.Accounts, "accounts", 1024, "accounts seeded per shard at genesis")
	fs.Int64Var(&o.Balance, "balance", 1<<40, "initial balance of each seeded account")

	fs.StringVar(&inv.topoPath, "topology", "", "topology file: run as one process of a multi-process deployment")
	fs.BoolVar(&inv.topoInit, "topology-init", false, "write a fresh topology file (with -clusters, -f, -model) and exit")
	fs.StringVar(&inv.listen, "listen", "", "replica mode: run the node whose topology address is this")
	fs.IntVar(&inv.node, "node", -1, "replica mode: run this node id (alternative to -listen)")
	fs.BoolVar(&inv.drive, "drive", false, "driver mode: issue workload against a running multi-process deployment")
	fs.StringVar(&inv.host, "host", "127.0.0.1", "host for -topology-init addresses")
	fs.IntVar(&inv.basePort, "base-port", 7100, "first port for -topology-init addresses")
	fs.StringVar(&inv.secret, "secret", "sharper-demo", "wire secret for -topology-init")
	fs.IntVar(&o.DriverIndex, "driver-index", 0, "unique index of this driver process (keeps client IDs disjoint)")
	fs.DurationVar(&o.ConnectTimeout, "connect-timeout", 15*time.Second, "driver mode: how long to wait for replicas to come up")
	fs.StringVar(&inv.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) so perf work starts from profiles")
	fs.StringVar(&o.MetricsAddr, "metrics", "", "replica mode: serve Prometheus-text /metrics on this address; with -pprof the endpoint is also registered on the pprof mux")
	fs.StringVar(&o.TraceDir, "trace-dir", "", "driver mode: directory to dump every replica's protocol trace ring into when the wire audit finds divergence; the replicas must run with -trace (default: the topology file's directory)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if c.Model, err = parseModel(*model); err != nil {
		return nil, err
	}
	if c.Sync, err = storage.ParseSyncPolicy(*syncPolicy); err != nil {
		return nil, err
	}
	if c.Shaping, err = parseShaping(inv.shape); err != nil {
		return nil, err
	}
	switch *transportKind {
	case "sim":
		c.Transport = core.TransportSim
	case "tcp":
		c.Transport = core.TransportTCP
	default:
		return nil, fmt.Errorf("unknown transport %q", *transportKind)
	}
	o.MetricsOnPprof = inv.pprof != ""
	if o.TraceDir == "" {
		o.TraceDir = filepath.Dir(inv.topoPath)
	}
	return inv, nil
}

// topologyConfig is the configuration a topology mode runs: the flags' one,
// on the file's cluster plan, with the file's link shaping unless -shape
// overrides it.
func topologyConfig(cfg core.Config, tf *TopologyFile) core.Config {
	cfg.Topology, cfg.Model = tf.Topo, tf.Model
	if cfg.Shaping == nil {
		cfg.Shaping = tf.Shaping
	}
	return cfg
}

func main() {
	inv, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if inv.pprof != "" {
		go func() {
			if err := http.ListenAndServe(inv.pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sharperd: pprof server: %v"+"\n", err)
			}
		}()
	}
	cfg := inv.cfg

	switch {
	case inv.topoInit:
		if inv.topoPath == "" {
			fmt.Fprintln(os.Stderr, "-topology-init needs -topology FILE")
			os.Exit(2)
		}
		if err := WriteTopologyFile(inv.topoPath, inv.host, inv.basePort, cfg.Clusters, cfg.F, cfg.Model, inv.secret, inv.shape); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d %s clusters, f=%d\n", inv.topoPath, cfg.Clusters, cfg.Model, cfg.F)
	case inv.topoPath == "":
		err = runLocal(cfg, inv.opts, os.Stdout)
	default:
		tf, perr := ParseTopologyFile(inv.topoPath)
		if perr != nil {
			log.Fatal(perr)
		}
		cfg = topologyConfig(cfg, tf)
		switch {
		case inv.drive:
			err = runDriver(tf, cfg, inv.opts, os.Stdout)
		case inv.listen != "" || inv.node >= 0:
			self := types.NodeID(inv.node)
			if inv.listen != "" {
				id, ok := tf.NodeByListenAddr(inv.listen)
				if !ok {
					log.Fatalf("no node in %s listens on %s", inv.topoPath, inv.listen)
				}
				self = id
			}
			stop := make(chan struct{})
			go func() {
				sig := make(chan os.Signal, 1)
				signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
				<-sig
				close(stop)
			}()
			err = runReplica(tf, self, cfg, inv.opts, stop, os.Stdout)
		default:
			log.Fatal("with -topology, pass -listen ADDR / -node N (replica) or -drive (driver)")
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseShaping turns the -shape flag into a shaping matrix: empty means no
// shaping, "multiregion" is the paper's cross-datacenter preset, anything
// else is one delay/bw/loss spec applied uniformly to every link class.
func parseShaping(spec string) (*transport.Shaping, error) {
	if spec == "" {
		return nil, nil
	}
	if spec == "multiregion" {
		return transport.Multiregion(), nil
	}
	s, err := transport.ParseLinkShape(strings.Fields(spec))
	if err != nil {
		return nil, fmt.Errorf("-shape: %w", err)
	}
	return &transport.Shaping{Default: s, Intra: s, Client: s}, nil
}

func parseModel(s string) (types.FailureModel, error) {
	switch s {
	case "crash":
		return types.CrashOnly, nil
	case "byzantine", "byz":
		return types.Byzantine, nil
	default:
		return types.CrashOnly, fmt.Errorf("unknown model %q", s)
	}
}

// -------------------------------------------------------------- workload --

// totals is what one closed-loop run committed.
type totals struct {
	committed, cross, failed, shed int64
	elapsed                        time.Duration
}

func (t totals) String() string {
	return fmt.Sprintf("total: %d transactions (%.0f tx/s), %d cross-shard, %d failed, %d shed",
		t.committed, float64(t.committed)/t.elapsed.Seconds(), t.cross, t.failed, t.shed)
}

// drive runs one closed-loop issuer per client for the options' duration,
// each on its own split of one workload generator, printing throughput once
// a second. Local runs and drivers both issue their load here.
func drive(cls []*core.Client, shards state.ShardMap, seed int64, opts options, out io.Writer) totals {
	gen := workload.New(workload.Config{
		Shards:           shards,
		AccountsPerShard: opts.Accounts,
		CrossShardPct:    opts.CrossPct,
		ShardsPerCross:   2,
		Seed:             seed,
	})
	var committed, crossDone, failed, shed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, c := range cls {
		wg.Add(1)
		go func(k int, c *core.Client) {
			defer wg.Done()
			g := gen.Split(k)
			for !stop.Load() {
				tx := c.MakeTx(g.Next())
				_, _, err := c.Submit(tx)
				switch {
				case errors.Is(err, core.ErrOverloaded) || errors.Is(err, core.ErrExpired):
					shed.Add(1)
				case err != nil:
					failed.Add(1)
				default:
					committed.Add(1)
					if tx.IsCrossShard() {
						crossDone.Add(1)
					}
				}
			}
		}(i, c)
	}

	start := time.Now()
	ticker := time.NewTicker(time.Second)
	deadline := time.After(opts.Duration)
loop:
	for {
		select {
		case <-ticker.C:
			n := committed.Load()
			fmt.Fprintf(out, "  t=%4.1fs committed=%6d (%.0f tx/s, %d cross-shard)\n",
				time.Since(start).Seconds(), n, float64(n)/time.Since(start).Seconds(), crossDone.Load())
		case <-deadline:
			break loop
		}
	}
	ticker.Stop()
	stop.Store(true)
	wg.Wait()
	return totals{committed.Load(), crossDone.Load(), failed.Load(), shed.Load(), time.Since(start)}
}

// printSched prints the deployment-wide aggregate of the cross-shard
// scheduler counters.
func printSched(s types.SchedStats, out io.Writer) {
	fmt.Fprintf(out, "scheduler: leads=%d (hw %d) table=%d grants=%d parks=%d withdraws=%d expiries=%d defers=%d avoided=%d selfwaits=%d\n",
		s.LeadsInFlight, s.LeadHighWater, s.TableSize, s.Grants, s.Parks,
		s.Withdraws, s.LockExpiries, s.Defers, s.DefersAvoided, s.SelfVoteWaits)
}

// ---------------------------------------------------------------- replica --

// runReplica hosts replica self of a multi-process deployment: a TCP fabric
// listening on the node's topology address, the replica runtime on top, and
// genesis state for its own shard. It returns when stop closes.
func runReplica(tf *TopologyFile, self types.NodeID, cfg core.Config, opts options, stop <-chan struct{}, out io.Writer) error {
	addr, ok := tf.Addrs[self]
	if !ok {
		return fmt.Errorf("node %s is not in the topology", self)
	}
	fcfg := tcpnet.Config{
		Self:       self,
		ListenAddr: addr,
		Peers:      tf.Addrs,
		Secret:     crypto.WireKey(tf.Secret),
	}
	// Every process shapes its own outbound links, so the deployment as a
	// whole emulates the WAN the topology file describes.
	if tune := core.ShapeTune(cfg.Shaping, cfg.Seed, tf.Topo.ClusterOf); tune != nil {
		tune(&fcfg)
	}
	fab, err := tcpnet.New(fcfg)
	if err != nil {
		return err
	}
	defer fab.Close()

	node, err := core.NewProcessNode(cfg, self, fab)
	if err != nil {
		return err
	}
	shards := state.ShardMap{NumShards: len(tf.Topo.Clusters)}
	for k := 0; k < opts.Accounts; k++ {
		node.Store().Credit(shards.AccountInShard(node.Cluster(), uint64(k)), opts.Balance)
	}
	node.Start()
	defer node.Stop()
	serveReplicaMetrics(node, fab, opts, out)
	if n := node.RecoveredBlocks(); n > 0 {
		fmt.Fprintf(out, "sharperd: replica %s recovered %d blocks from %s\n", self, n, core.NodeDataDir(cfg.DataDir, self))
	}
	fmt.Fprintf(out, "sharperd: replica %s (cluster %s) listening on %s\n", self, node.Cluster(), fab.Addr())
	<-stop
	// Stop before reading the scheduler counters: Counters is a quiesced
	// read (the deferred Stop above is idempotent).
	node.Stop()
	s := node.Counters()
	fmt.Fprintf(out, "sharperd: replica %s stopping (committed %d, chain %d blocks, %d anomalies; sched leads=%d parks=%d withdraws=%d expiries=%d avoided=%d)\n",
		self, node.Committed(), node.View().Len(), node.Anomalies(),
		s.LeadsInFlight, s.Parks, s.Withdraws, s.LockExpiries, s.DefersAvoided)
	if cfg.Trace {
		for _, line := range node.DebugTrace() {
			fmt.Fprintf(out, "sharperd: trace %s: %s\n", self, line)
		}
	}
	return nil
}

// metricsOnPprofOnce guards the process-wide pprof-mux registration: tests
// host several replicas in one process, and DefaultServeMux panics on a
// duplicate pattern.
var metricsOnPprofOnce sync.Once

// serveReplicaMetrics exposes the replica's registry (plus its TCP fabric's
// per-peer link counters, which live outside the registry) in Prometheus
// text form: on a dedicated listener when -metrics is set, and on the pprof
// mux when -pprof is up.
func serveReplicaMetrics(node *core.Node, fab *tcpnet.Net, opts options, out io.Writer) {
	if opts.MetricsAddr == "" && !opts.MetricsOnPprof {
		return
	}
	handler := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if reg := node.Metrics(); reg != nil {
			reg.WritePrometheus(w)
		}
		writeLinkMetrics(w, fab)
	}
	if opts.MetricsOnPprof {
		metricsOnPprofOnce.Do(func() { http.HandleFunc("/metrics", handler) })
	}
	if opts.MetricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", handler)
		go func() {
			if err := http.ListenAndServe(opts.MetricsAddr, mux); err != nil {
				fmt.Fprintf(out, "sharperd: metrics server: %v\n", err)
			}
		}()
	}
}

// writeLinkMetrics renders the TCP fabric's per-peer link counters as
// labelled Prometheus series (queue depth, bytes, sends/drops, shaped delay,
// reconnects) — the wire-level view the per-node registry cannot hold.
func writeLinkMetrics(w io.Writer, fab *tcpnet.Net) {
	stats := fab.LinkStats()
	if len(stats) == 0 {
		return
	}
	families := []struct {
		name string
		get  func(tcpnet.PeerLinkStats) int64
	}{
		{"sharper_link_sent", func(s tcpnet.PeerLinkStats) int64 { return s.Sent }},
		{"sharper_link_dropped", func(s tcpnet.PeerLinkStats) int64 { return s.Dropped }},
		{"sharper_link_bytes", func(s tcpnet.PeerLinkStats) int64 { return s.Bytes }},
		{"sharper_link_reconnects", func(s tcpnet.PeerLinkStats) int64 { return s.Reconnects }},
		{"sharper_link_shaped_us", func(s tcpnet.PeerLinkStats) int64 { return s.ShapedMicros }},
		{"sharper_link_queue_depth", func(s tcpnet.PeerLinkStats) int64 { return int64(s.QueueDepth) }},
	}
	for _, f := range families {
		fmt.Fprintf(w, "# TYPE %s gauge\n", f.name)
		for _, s := range stats {
			fmt.Fprintf(w, "%s{peer=\"%s\"} %d\n", f.name, s.Peer, f.get(s))
		}
	}
}

// ----------------------------------------------------------------- driver --

// runDriver attaches to a running multi-process deployment over a dial-only
// fabric, issues the workload, then audits the deployment's DAG by fetching
// every cluster's chain through the sync protocol.
func runDriver(tf *TopologyFile, cfg core.Config, opts options, out io.Writer) error {
	fcfg := tcpnet.Config{
		Peers:  tf.Addrs,
		Secret: crypto.WireKey(tf.Secret),
	}
	// The driver's dial-only fabric gets the topology's client link shape, so
	// request/reply latency matches the emulated WAN too.
	if tune := core.ShapeTune(cfg.Shaping, cfg.Seed, tf.Topo.ClusterOf); tune != nil {
		tune(&fcfg)
	}
	fab, err := tcpnet.New(fcfg)
	if err != nil {
		return err
	}
	defer fab.Close()

	shards := state.ShardMap{NumShards: len(tf.Topo.Clusters)}
	// Client IDs are partitioned by driver index so several driver processes
	// can share one deployment without colliding.
	clientBase := types.ClientIDBase + types.NodeID(opts.DriverIndex)*100_000
	cls := make([]*core.Client, opts.Clients)
	for i := range cls {
		cls[i] = core.NewClientAt(fab, tf.Topo, shards, clientBase+types.NodeID(i)+1)
	}
	fmt.Fprintf(out, "sharperd: driver connecting to %d replicas…\n", len(tf.Addrs))
	if err := fab.ConnectAll(opts.ConnectTimeout); err != nil {
		return fmt.Errorf("deployment not up: %w", err)
	}
	fmt.Fprintln(out, drive(cls, shards, cfg.Seed, opts, out))

	// Replicas keep converging (cross-shard decisions propagate to
	// non-initiator replicas asynchronously, chain sync fills gaps), so
	// retry the audit until the fetched views agree or the deadline passes.
	var dag *ledger.DAG
	var auditErr error
	auditDeadline := time.Now().Add(15 * time.Second)
	for attempt := 0; ; attempt++ {
		dag, auditErr = fetchDAG(fab, tf, clientBase+99_000+types.NodeID(attempt))
		if auditErr == nil {
			auditErr = dag.Audit()
		}
		if auditErr == nil {
			break
		}
		if time.Now().After(auditDeadline) {
			// A divergent deployment's protocol history lives in the
			// replicas' trace rings; pull them all while the processes are
			// still up — they are the only evidence.
			dumpTraces(fab, tf, opts.TraceDir, clientBase+98_000, out)
			return fmt.Errorf("ledger audit FAILED: %w", auditErr)
		}
		time.Sleep(300 * time.Millisecond)
	}
	fmt.Fprintln(out, "ledger audit: all views consistent, cross-shard order agrees")
	if err := auditState(fab, tf, clientBase+94_000, out); err != nil {
		return fmt.Errorf("state audit FAILED: %w", err)
	}
	printMetrics(fab, tf, clientBase+95_000, out)
	if cfg.Slash {
		if err := printEvidence(fab, tf, cfg, clientBase+96_000, out); err != nil {
			return err
		}
	}
	if opts.ShowDAG {
		fmt.Fprint(out, dag.RenderASCII())
	}
	return nil
}

// query sends one operator query of the given kind to every replica and
// collects the decoded answers by the replica each names, until every
// replica has answered or three seconds pass. Answers naming a node outside
// the topology are dropped, so a lying replica cannot clobber another's
// entry or satisfy the completion count.
func query[T any](fab *tcpnet.Net, tf *TopologyFile, from types.NodeID, kind types.QueryKind,
	decode func([]byte) (T, error), nodeOf func(T) types.NodeID) map[types.NodeID]T {
	inbox := fab.Register(from)
	for id := range tf.Addrs {
		fab.Send(id, &types.Envelope{Type: types.MsgQuery, From: from, Payload: []byte{byte(kind)}})
	}
	got := make(map[types.NodeID]T, len(tf.Addrs))
	deadline := time.After(3 * time.Second)
	for len(got) < len(tf.Addrs) {
		select {
		case env := <-inbox:
			if env.Type != types.MsgQueryResponse {
				continue
			}
			k, body, err := types.DecodeQueryResponse(env.Payload)
			if err != nil || k != kind {
				continue
			}
			v, err := decode(body)
			if err != nil {
				continue
			}
			id := nodeOf(v)
			if _, known := tf.Addrs[id]; !known {
				continue
			}
			if _, dup := got[id]; !dup {
				got[id] = v
			}
		case <-deadline:
			return got
		}
	}
	return got
}

// answered reports a query that not every replica answered, and whether any
// did.
func answered[T any](got map[types.NodeID]T, tf *TopologyFile, what string, out io.Writer) bool {
	if len(got) < len(tf.Addrs) {
		fmt.Fprintf(out, "sharperd: %s: %d/%d replicas answered\n", what, len(got), len(tf.Addrs))
	}
	return len(got) > 0
}

// auditState fetches every replica's deterministic store fingerprint
// (QueryState) and asserts that, cluster by cluster, every replica
// reports the same applied height and hash — the wire proof that
// conflict-partitioned parallel apply produced exactly the state serial
// execution would have. Replicas may briefly lag (executor drain, chain
// sync), so disagreement retries until the deadline, each attempt on a
// fresh endpoint so that no answer to an earlier attempt is counted.
func auditState(fab *tcpnet.Net, tf *TopologyFile, auditID types.NodeID, out io.Writer) error {
	deadline := time.Now().Add(10 * time.Second)
	for attempt := types.NodeID(0); ; attempt++ {
		got := query(fab, tf, auditID+attempt, types.QueryState,
			types.DecodeStateDigest, func(d *types.StateDigest) types.NodeID { return d.Node })
		err := stateConsensus(tf, got)
		if err == nil {
			fmt.Fprintln(out, "state audit: store fingerprints agree on every cluster")
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(300 * time.Millisecond)
	}
}

// stateConsensus checks per-cluster agreement of fetched state digests.
func stateConsensus(tf *TopologyFile, got map[types.NodeID]*types.StateDigest) error {
	byCluster := make(map[types.ClusterID][]*types.StateDigest)
	for id := range tf.Addrs {
		d, ok := got[id]
		if !ok {
			return fmt.Errorf("replica %v did not answer the state audit", id)
		}
		c, ok := tf.Topo.ClusterOf(id)
		if !ok {
			continue
		}
		byCluster[c] = append(byCluster[c], d)
	}
	for c, ds := range byCluster {
		first := ds[0]
		for _, d := range ds[1:] {
			if d.Height != first.Height {
				return fmt.Errorf("cluster %v: applied heights differ (%v at %d, %v at %d)",
					c, first.Node, first.Height, d.Node, d.Height)
			}
			if d.Hash != first.Hash {
				return fmt.Errorf("cluster %v: fingerprint mismatch at height %d between %v and %v",
					c, first.Height, first.Node, d.Node)
			}
		}
	}
	return nil
}

// printMetrics fetches every replica's registry snapshot over the wire
// (QueryMetrics), merges the fleet, and prints the deployment-wide
// scheduler aggregate, the commit-latency breakdown and headline counters.
// The scheduler line reads the merged sched_* gauges: a replica refreshes
// them from its scheduler counters before it answers, and obs.Merge sums
// gauges the way SchedStats.Add does.
func printMetrics(fab *tcpnet.Net, tf *TopologyFile, metricsID types.NodeID, out io.Writer) {
	got := query(fab, tf, metricsID, types.QueryMetrics,
		types.DecodeMetricsDump, func(d *types.MetricsDump) types.NodeID { return d.Node })
	if !answered(got, tf, "metrics", out) {
		return
	}
	var snaps [][]obs.Metric
	for _, d := range got {
		snaps = append(snaps, obs.MetricsFromWire(d.Metrics))
	}
	merged := obs.Merge(snaps...)
	byName := make(map[string]*obs.Metric, len(merged))
	for i := range merged {
		byName[merged[i].Name] = &merged[i]
	}
	val := func(name string) uint64 {
		if m := byName[name]; m != nil {
			return m.Value
		}
		return 0
	}
	printSched(types.SchedStats{
		LeadsInFlight: val("sched_leads_in_flight"), LeadHighWater: val("sched_lead_high_water"),
		TableSize: val("sched_table_size"), Grants: val("sched_grants"), Parks: val("sched_parks"),
		Withdraws: val("sched_withdraws"), LockExpiries: val("sched_lock_expiries"),
		Defers: val("sched_defers"), DefersAvoided: val("sched_defers_avoided"),
		SelfVoteWaits: val("sched_self_vote_waits"),
	}, out)
	fmt.Fprintf(out, "metrics: committed=%d verify{windows=%d envelopes=%d bisects=%d} storage{wal=%dB ckpts=%d}\n",
		val("committed_txs"), val("verify_windows"), val("verify_envelopes"),
		val("verify_bisects"), val("storage_wal_bytes"), val("storage_checkpoints"))
	fmt.Fprintf(out, "metrics: mempool admitted=%d deduped=%d shed=%d expired=%d pending{count=%d bytes=%d}\n",
		val("mempool_admitted"), val("mempool_deduped"), val("mempool_shed"),
		val("mempool_expired"), val("mempool_pending_count"), val("mempool_pending_bytes"))
	for _, series := range []string{"intra", "cross"} {
		if m := byName["stage_"+series+"_total_us"]; m != nil && m.Count > 0 {
			fmt.Fprintf(out, "metrics: %s commit latency (µs, %d sampled): p50=%d p95=%d p99=%d\n",
				series, m.Count, m.Quantile(0.50), m.Quantile(0.95), m.Quantile(0.99))
		}
	}
}

// printEvidence fetches every replica's accumulated fraud proofs over the
// wire (QueryEvidence), deduplicates them, re-verifies each one against
// the keys every replica derives from the shared configuration (the driver
// never sees a private channel the proofs depend on), and prints the
// offender report.
func printEvidence(fab *tcpnet.Net, tf *TopologyFile, cfg core.Config, evID types.NodeID, out io.Writer) error {
	keys, err := core.DeriveKeys(cfg)
	if err != nil {
		return fmt.Errorf("evidence: rebuilding keys: %w", err)
	}
	got := query(fab, tf, evID, types.QueryEvidence,
		types.DecodeEvidenceDump, func(d *types.EvidenceDump) types.NodeID { return d.Node })
	answered(got, tf, "evidence", out)
	proofs := make(map[string]*types.FraudProof)
	for _, dump := range got {
		for _, p := range dump.Proofs {
			proofs[p.Key()] = p
		}
	}
	printOffenders(proofs, keys, tf.Topo, out)
	return nil
}

// printOffenders re-verifies fraud proofs offline against the deployment's
// keys and prints, per offender, how many proofs of each kind it earned. A
// proof that fails offline verification is counted separately: the replicas
// should never have admitted it.
func printOffenders(proofs map[string]*types.FraudProof, keys crypto.Provider, topo *consensus.Topology, out io.Writer) {
	var verifier types.SigVerifier = crypto.NoopSigner{}
	if topo.AnyByzantine() {
		verifier = keys
	}
	if len(proofs) == 0 {
		fmt.Fprintln(out, "slasher: no fraud proofs collected — no equivocation observed")
		return
	}
	perOffender := make(map[types.NodeID]map[types.FraudKind]int)
	invalid := 0
	for _, p := range proofs {
		if err := p.Verify(verifier); err != nil {
			invalid++
			fmt.Fprintf(out, "slasher: REJECTED %s: %v\n", p, err)
			continue
		}
		if perOffender[p.Offender] == nil {
			perOffender[p.Offender] = make(map[types.FraudKind]int)
		}
		perOffender[p.Offender][p.Kind]++
	}
	fmt.Fprintf(out, "slasher: %d distinct fraud proofs, %d offenders, %d failed offline verification\n",
		len(proofs)-invalid, len(perOffender), invalid)
	for _, id := range topo.AllNodes() {
		kinds, guilty := perOffender[id]
		if !guilty {
			continue
		}
		fmt.Fprintf(out, "slasher: offender %s:", id)
		for _, k := range [...]types.FraudKind{types.FraudDoubleProposal, types.FraudDoubleVote, types.FraudConflictingViewChange} {
			if n := kinds[k]; n > 0 {
				fmt.Fprintf(out, " %s=%d", k, n)
			}
		}
		fmt.Fprintln(out)
	}
}

// dumpTraces asks every replica for its protocol-event ring and writes one
// trace-node-<id>.log per replica into dir, giving a divergence hunt the
// cross-process evidence it needs. Replicas running without -trace answer
// with empty rings, which are noted but not written. (A Byzantine replica
// can still claim a peer's ID — rings are diagnostic leads, not
// authenticated evidence.)
func dumpTraces(fab *tcpnet.Net, tf *TopologyFile, dir string, dumpID types.NodeID, out io.Writer) {
	got := query(fab, tf, dumpID, types.QueryTrace,
		types.DecodeTraceDump, func(d *types.TraceDump) types.NodeID { return d.Node })
	answered(got, tf, "trace dump", out)
	empty := 0
	for id, dump := range got {
		if len(dump.Lines) == 0 {
			empty++
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("trace-node-%d.log", uint32(id)))
		if err := os.WriteFile(path, []byte(strings.Join(dump.Lines, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintf(out, "sharperd: trace dump %s: %v\n", path, err)
			continue
		}
		fmt.Fprintf(out, "sharperd: wrote %s (%d events)\n", path, len(dump.Lines))
	}
	if empty > 0 {
		fmt.Fprintf(out, "sharperd: trace dump: %d replicas had empty rings (start them with -trace to record)\n", empty)
	}
}

// fetchDAG pulls one representative chain per cluster over the sync
// protocol and assembles the Fig. 2 union DAG, giving a driver process the
// same audit a co-located deployment gets from Deployment.DAG().
func fetchDAG(fab *tcpnet.Net, tf *TopologyFile, auditID types.NodeID) (*ledger.DAG, error) {
	inbox := fab.Register(auditID)
	var views []*ledger.View
	for _, cid := range tf.Topo.ClusterIDs() {
		peer := tf.Topo.Members(cid)[0]
		v, err := core.FetchView(fab, auditID, inbox, peer, cid, 500*time.Millisecond)
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	return ledger.NewDAG(views...), nil
}

// ------------------------------------------------------- single process ----

// runLocal is the single-process mode: a full deployment of cfg in one
// process, on the simulated fabric or (with -transport tcp) on real loopback
// sockets, driven, stopped and audited.
func runLocal(cfg core.Config, opts options, out io.Writer) error {
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return err
	}
	defer d.Stop()
	d.SeedAccounts(opts.Accounts, opts.Balance)
	d.Start()

	fabric := "simulated fabric"
	if cfg.Transport == core.TransportTCP {
		fabric = "loopback TCP sockets"
	}
	if cfg.Shaping != nil {
		fabric += ", shaped links"
	}
	nodes := len(d.Topo.AllNodes())
	fmt.Fprintf(out, "sharperd: %s model, %d clusters, %d nodes over %s, %d%% cross-shard, %d clients, batch≤%d\n",
		cfg.Model, len(d.Topo.Clusters), nodes, fabric, opts.CrossPct, opts.Clients, cfg.BatchSize)

	cls := make([]*core.Client, opts.Clients)
	for i := range cls {
		cls[i] = d.NewClient()
	}
	t := drive(cls, d.Shards, cfg.Seed, opts, out)
	time.Sleep(200 * time.Millisecond) // quiesce
	fmt.Fprintln(out, t)
	// Stop the deployment before reading counters and auditing: scheduler
	// counters are a quiesced read, and Stop is idempotent under the
	// deferred call above.
	d.Stop()
	printSched(d.SchedStats(), out)
	dag := d.DAG()
	if err := dag.Audit(); err != nil {
		return fmt.Errorf("ledger audit FAILED: %w", err)
	}
	fmt.Fprintln(out, "ledger audit: all views consistent, cross-shard order agrees")
	if cfg.Slash {
		// A fault-free local run should never report an offender; proofs
		// mean a replica equivocated (or the auditor has a bug worth a
		// report).
		proofs := make(map[string]*types.FraudProof)
		for _, p := range d.FraudProofs() {
			proofs[p.Key()] = p
		}
		printOffenders(proofs, d.Keyring, d.Topo, out)
	}
	if opts.ShowDAG {
		fmt.Fprint(out, dag.RenderASCII())
	}
	return nil
}
