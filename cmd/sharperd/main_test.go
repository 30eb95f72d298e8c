package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sharper/internal/core"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/matrix"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/transport/tcpnet"
	"sharper/internal/types"
)

// TestMain doubles as the replica entry point for the multi-process tests:
// they re-exec the test binary with SHARPERD_TEST_ROLE=replica and sharperd's
// own replica flags, which runs one real replica process until killed — the
// same code path as `sharperd -topology FILE -node N`.
func TestMain(m *testing.M) {
	if os.Getenv("SHARPERD_TEST_ROLE") == "replica" {
		if err := replicaMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// replicaMain runs one replica process from its command line until SIGTERM,
// which triggers a clean shutdown (and, with -trace, prints the ring).
func replicaMain(args []string) error {
	inv, err := parseFlags(args)
	if err != nil {
		return err
	}
	tf, err := ParseTopologyFile(inv.topoPath)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	// A replica's storage is whatever its -data flag says.
	cfg := inv.cfg
	matrix.Apply(nil, &cfg.BatchSize, &cfg.VerifyWindow, &cfg.Trace, nil, nil)
	return runReplica(tf, types.NodeID(inv.node), topologyConfig(cfg, tf), inv.opts, stop, os.Stdout)
}

// matrixConfig is cfg under CI's configuration matrix (internal/matrix):
// every knob the test leaves zero takes the matrix job's value.
func matrixConfig(tb testing.TB, cfg core.Config) core.Config {
	matrix.Apply(tb, &cfg.BatchSize, &cfg.VerifyWindow, &cfg.Trace, &cfg.DataDir, &cfg.Sync)
	return cfg
}

// spawnReplica starts replica id of the topology file as its own OS process,
// writing its output to out, with extra appended to its flags.
func spawnReplica(t *testing.T, topoPath string, id int, out io.Writer, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{
		"-topology", topoPath, "-node", strconv.Itoa(id),
		"-seed", "1", "-batch", "1", "-accounts", "256", "-balance", "1073741824",
		// CI oversubscription (multiple heavy test packages sharing the CPU
		// with 12 replica processes) can stall commit delivery for seconds;
		// the §3.2 lock expiry must dominate it or late cross-shard commits
		// become unappendable (see DESIGN.md, "Durable storage").
		"-lock-timeout", "10s",
		// Trace every transaction so the driver's metrics roll-up has stage
		// latencies to report.
		"-trace-sample", "1",
	}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SHARPERD_TEST_ROLE=replica")
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn replica %d: %v", id, err)
	}
	proc := cmd.Process
	t.Cleanup(func() {
		proc.Kill()
		cmd.Wait()
	})
	return cmd
}

// driveTopology runs the client driver `sharperd -topology FILE -drive`
// dispatches to against the replicas of tf for d.
func driveTopology(tf *TopologyFile, d time.Duration, out io.Writer) error {
	return runDriver(tf, topologyConfig(core.Config{Seed: 1}, tf), options{
		Clients:        8,
		CrossPct:       20,
		Duration:       d,
		Accounts:       256,
		ConnectTimeout: 20 * time.Second,
	}, out)
}

// freeAddrs reserves n distinct loopback ports by briefly listening on :0.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestMultiProcessDeployment boots a 4-cluster crash-model deployment as 12
// separate sharperd OS processes on loopback, drives a mixed intra-/cross-
// shard workload against it, and audits the assembled ledger DAG fetched
// over the wire — the acceptance scenario for the TCP backend.
func TestMultiProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test is not -short")
	}
	const clusters, f = 4, 1
	size := types.CrashOnly.ClusterSize(f)
	total := clusters * size

	addrs := freeAddrs(t, total+1)
	metricsAddr := addrs[total]
	addrs = addrs[:total]
	var topo strings.Builder
	fmt.Fprintf(&topo, "model crash\nf %d\nsecret multiproc-test\n", f)
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&topo, "cluster %d %s\n", c, strings.Join(addrs[c*size:(c+1)*size], " "))
	}
	topoPath := filepath.Join(t.TempDir(), "topo.txt")
	if err := os.WriteFile(topoPath, []byte(topo.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTopologyFile(topoPath)
	if err != nil {
		t.Fatal(err)
	}

	// One OS process per replica, each recording its protocol trace; one
	// also serves /metrics.
	var replicaLogs []*syncBuffer
	var replicaCmds []*exec.Cmd
	for id := 0; id < total; id++ {
		extra := []string{"-trace"}
		if id == 0 {
			extra = append(extra, "-metrics", metricsAddr)
		}
		log := &syncBuffer{}
		replicaLogs = append(replicaLogs, log)
		replicaCmds = append(replicaCmds, spawnReplica(t, topoPath, id, log, extra...))
	}

	// The driver runs in-process; its ConnectAll waits for the replica
	// processes to come up.
	var out bytes.Buffer
	if err := driveTopology(tf, 2*time.Second, &out); err != nil {
		t.Log(debugChainLengths(tf))
		// Graceful shutdown dumps each replica's protocol trace.
		for _, cmd := range replicaCmds {
			cmd.Process.Signal(syscall.SIGTERM)
		}
		time.Sleep(2 * time.Second)
		for i, log := range replicaLogs {
			if log.Len() > 0 {
				t.Logf("replica %d: %s", i, log.String())
			}
		}
		t.Fatalf("driver: %v\noutput:\n%s", err, out.String())
	}

	got := out.String()
	if !strings.Contains(got, "ledger audit: all views consistent") {
		t.Fatalf("driver output missing audit line:\n%s", got)
	}
	// A healthy 2s run commits far more than this; the floor just guards
	// against an accidentally idle deployment passing the audit vacuously.
	committed, crossShard := parseTotals(t, got)
	if committed < 50 {
		t.Fatalf("suspiciously few commits (%d):\n%s", committed, got)
	}
	if crossShard == 0 {
		t.Fatalf("no cross-shard transactions committed:\n%s", got)
	}

	// The driver's closing audit must have assembled the fleet metrics
	// roll-up over the wire, stage latencies included (every replica ran
	// with TraceSample 1).
	if !strings.Contains(got, "metrics: committed=") {
		t.Fatalf("driver output missing metrics roll-up:\n%s", got)
	}
	for _, series := range []string{"intra", "cross"} {
		if !strings.Contains(got, "metrics: "+series+" commit latency") {
			t.Fatalf("driver metrics roll-up missing %s latency line:\n%s", series, got)
		}
	}
	// The scheduler line reads the same roll-up's sched_* gauges; a run with
	// cross-shard commits has granted cross-shard votes.
	if m := regexp.MustCompile(`scheduler: leads=\d+ .* grants=(\d+) `).FindStringSubmatch(got); m == nil || m[1] == "0" {
		t.Fatalf("driver output missing a scheduler line with grants:\n%s", got)
	}

	// Replica 0 serves Prometheus text on its -metrics address; the replica
	// processes outlive the driver, so scrape it now.
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape replica 0 metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics body: %v", err)
	}
	for _, want := range []string{"sharper_committed_txs", "sharper_stage_intra_total_us", "sharper_link_sent{peer="} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestMultiProcessRestart is the durability acceptance scenario: a
// 12-process deployment with -data directories takes kill -9 of one replica
// per cluster mid-workload; the killed replicas are restarted over their
// storage directories, recover chain + state from disk, rejoin via chain
// sync, and the deployment keeps committing — the wire-fetched DAG audit
// must find every view consistent and divergence-free.
func TestMultiProcessRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process restart test is not -short")
	}
	const clusters, f = 4, 1
	size := types.CrashOnly.ClusterSize(f)
	total := clusters * size

	addrs := freeAddrs(t, total)
	var topo strings.Builder
	fmt.Fprintf(&topo, "model crash\nf %d\nsecret restart-test\n", f)
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&topo, "cluster %d %s\n", c, strings.Join(addrs[c*size:(c+1)*size], " "))
	}
	tmp := t.TempDir()
	topoPath := filepath.Join(tmp, "topo.txt")
	if err := os.WriteFile(topoPath, []byte(topo.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTopologyFile(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "data")

	logs := make(map[int]*syncBuffer)
	cmds := make(map[int]*exec.Cmd)
	spawn := func(id int) {
		logs[id] = &syncBuffer{}
		cmds[id] = spawnReplica(t, topoPath, id, logs[id], "-data", dataDir)
	}
	for id := 0; id < total; id++ {
		spawn(id)
	}

	// One backup per cluster dies mid-workload — a minority everywhere
	// (member 0 is the initial primary; progress never stalls).
	victims := make([]int, 0, clusters)
	for c := 0; c < clusters; c++ {
		victims = append(victims, c*size+2)
	}

	driverDone := make(chan error, 1)
	var out bytes.Buffer
	go func() { driverDone <- driveTopology(tf, 6*time.Second, &out) }()

	time.Sleep(2500 * time.Millisecond) // let the workload commit real history
	for _, id := range victims {
		if err := cmds[id].Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
			t.Fatalf("kill -9 replica %d: %v", id, err)
		}
		cmds[id].Wait()
	}
	time.Sleep(time.Second) // deployment runs on with a minority down
	restartLogs := make(map[int]*syncBuffer)
	for _, id := range victims {
		spawn(id)
		restartLogs[id] = logs[id]
	}

	if err := <-driverDone; err != nil {
		t.Log(debugChainLengths(tf))
		for id, log := range logs {
			if log.Len() > 0 {
				t.Logf("replica %d: %s", id, log.String())
			}
		}
		t.Fatalf("driver: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "ledger audit: all views consistent") {
		t.Fatalf("driver output missing audit line:\n%s", got)
	}
	committed, crossShard := parseTotals(t, got)
	if committed < 50 {
		t.Fatalf("suspiciously few commits (%d):\n%s", committed, got)
	}
	if crossShard == 0 {
		t.Fatalf("no cross-shard transactions committed:\n%s", got)
	}
	// Every restarted replica must have recovered real history from disk,
	// not restarted empty (which would mean a full resend, not recovery).
	for _, id := range victims {
		if !strings.Contains(restartLogs[id].String(), "recovered") {
			t.Fatalf("replica %d restarted without recovering from %s:\n%s",
				id, dataDir, restartLogs[id].String())
		}
	}
}

// syncBuffer is a bytes.Buffer safe to read while an exec.Cmd's copier
// goroutine still writes it (live replica processes outlast the test body).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

// parseTotals extracts the committed and cross-shard counts from the
// driver's "total: N transactions (...), M cross-shard, K failed" line.
func parseTotals(t *testing.T, out string) (committed, crossShard int) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "total: ") {
			continue
		}
		if _, err := fmt.Sscanf(line, "total: %d transactions", &committed); err != nil {
			t.Fatalf("unparseable total line %q: %v", line, err)
		}
		if i := strings.Index(line, ", "); i >= 0 {
			fmt.Sscanf(line[i+2:], "%d cross-shard", &crossShard)
		}
		return committed, crossShard
	}
	t.Fatalf("no total line in driver output:\n%s", out)
	return 0, 0
}

func TestTopologyFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.txt")
	if err := WriteTopologyFile(path, "127.0.0.1", 7300, 3, 1, types.Byzantine, "s3cret", "multiregion"); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTopologyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Model != types.Byzantine || tf.F != 1 || tf.Secret != "s3cret" {
		t.Fatalf("header mismatch: %+v", tf)
	}
	if tf.Shaping == nil || tf.Shaping.Default != transport.Multiregion().Default {
		t.Fatalf("link multiregion did not round-trip: %+v", tf.Shaping)
	}
	if len(tf.Topo.Clusters) != 3 {
		t.Fatalf("want 3 clusters, got %d", len(tf.Topo.Clusters))
	}
	size := types.Byzantine.ClusterSize(1)
	if len(tf.Addrs) != 3*size {
		t.Fatalf("want %d addresses, got %d", 3*size, len(tf.Addrs))
	}
	id, ok := tf.NodeByListenAddr("127.0.0.1:7300")
	if !ok || id != 0 {
		t.Fatalf("NodeByListenAddr: id=%v ok=%v", id, ok)
	}
}

func TestTopologyFileRejectsUndersizedCluster(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.txt")
	content := "model byzantine\nf 1\nsecret x\ncluster 0 127.0.0.1:1 127.0.0.1:2 127.0.0.1:3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTopologyFile(path); err == nil {
		t.Fatal("3-node byzantine f=1 cluster accepted (needs 3f+1=4)")
	}
}

// debugChainLengths fetches every replica's chain length for flake triage.
func debugChainLengths(tf *TopologyFile) string {
	fab, err := tcpnet.New(tcpnet.Config{Peers: tf.Addrs, Secret: crypto.WireKey(tf.Secret)})
	if err != nil {
		return err.Error()
	}
	defer fab.Close()
	var b strings.Builder
	audit := types.ClientIDBase + 500_000
	inbox := fab.Register(audit)
	for _, cid := range tf.Topo.ClusterIDs() {
		var views []*ledger.View
		for _, m := range tf.Topo.Members(cid) {
			v, err := core.FetchView(fab, audit, inbox, m, cid, 400*time.Millisecond)
			if err != nil {
				fmt.Fprintf(&b, "%s/%s: fetch error %v\n", cid, m, err)
				continue
			}
			fmt.Fprintf(&b, "%s/%s: %d blocks head=%s\n", cid, m, v.Len(), v.Head())
			views = append(views, v)
			audit++
			inbox = fab.Register(audit)
		}
		// Report the first index where members' chains diverge, if any.
		for i := 1; i < len(views); i++ {
			a, c := views[0], views[i]
			n := a.Len()
			if c.Len() < n {
				n = c.Len()
			}
			for idx := 0; idx < n; idx++ {
				if a.Block(idx).Hash() != c.Block(idx).Hash() {
					fmt.Fprintf(&b, "%s: DIVERGENCE at block %d between member 0 (%s) and member %d (%s)\n",
						cid, idx, blockTxs(a.Block(idx)), i, blockTxs(c.Block(idx)))
					break
				}
			}
		}
	}
	return b.String()
}

func blockTxs(bl *types.Block) string {
	var b strings.Builder
	for i, tx := range bl.Txs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tx.ID.String())
	}
	fmt.Fprintf(&b, " inv=%s", bl.Involved())
	return b.String()
}

func TestTopologyFileRejectsLateFaultBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.txt")
	content := "model crash\nsecret x\ncluster 0 127.0.0.1:1 127.0.0.1:2 127.0.0.1:3\nf 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTopologyFile(path); err == nil {
		t.Fatal("f directive after cluster lines accepted (earlier clusters would get the wrong quorums)")
	}
}

// TestFlagsReachConfig parses one command line and requires every
// configuration flag to land in the core.Config both the single-process mode
// and a replica process build from — -lock-timeout was once dropped on the
// single-process path.
func TestFlagsReachConfig(t *testing.T) {
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "topo.txt")
	if err := WriteTopologyFile(topoPath, "127.0.0.1", 7500, 2, 1, types.CrashOnly, "s", ""); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTopologyFile(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := parseFlags([]string{"-lock-timeout", "7s", "-batch", "4", "-verify-window", "8", "-seed", "9",
		"-sync", "always", "-data", dir, "-slash", "-ed25519", "-trace-sample", "2", "-trace"})
	if err != nil {
		t.Fatal(err)
	}
	replica := topologyConfig(inv.cfg, tf)
	if replica.Topology != tf.Topo {
		t.Fatal("replica mode does not run the topology file's plan")
	}
	for mode, c := range map[string]core.Config{"local": inv.cfg, "replica": replica} {
		for _, f := range []struct {
			flag      string
			got, want any
		}{
			{"-lock-timeout", c.LockTimeout, 7 * time.Second},
			{"-batch", c.BatchSize, 4},
			{"-verify-window", c.VerifyWindow, 8},
			{"-seed", c.Seed, int64(9)},
			{"-sync", c.Sync, storage.SyncAlways},
			{"-data", c.DataDir, dir},
			{"-slash", c.Slash, true},
			{"-ed25519", c.Ed25519, true},
			{"-trace-sample", c.TraceSample, 2},
			{"-trace", c.Trace, true},
		} {
			if f.got != f.want {
				t.Errorf("%s mode: %s gave %v, want %v", mode, f.flag, f.got, f.want)
			}
		}
	}
}

// TestLocalMode runs the single-process mode end to end over both fabrics:
// a short mixed workload, then the closing ledger audit.
func TestLocalMode(t *testing.T) {
	for _, tr := range []string{"sim", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			inv, err := parseFlags([]string{"-transport", tr, "-clusters", "2", "-cross", "20",
				"-clients", "4", "-duration", "1s", "-accounts", "64", "-slash"})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := runLocal(matrixConfig(t, inv.cfg), inv.opts, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			got := out.String()
			for _, want := range []string{"ledger audit: all views consistent", "slasher: no fraud proofs"} {
				if !strings.Contains(got, want) {
					t.Fatalf("output missing %q:\n%s", want, got)
				}
			}
			if committed, _ := parseTotals(t, got); committed == 0 {
				t.Fatalf("nothing committed:\n%s", got)
			}
		})
	}
}
