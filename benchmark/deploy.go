package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// driverIDBase keeps the benchmark's endpoint IDs clear of the ones the
// program's own client factory hands out (ClientIDBase+1, +2, …).
const driverIDBase = ClientIDBase + 1<<16

// system is one built, seeded and started deployment with the benchmark's
// driver attached to its client fabric.
type system struct {
	w       workload
	dep     *Deployment
	drv     *driver
	dataDir string // "" when in-memory
	crashed map[NodeID]bool
	seeded  int64 // total balance credited at genesis
	halted  bool
	// restartErr is a failed RestartNode, reported by the audit.
	restartErr error

	// nodesMu orders RestartNode, which replaces a node in the deployment's
	// table, against the counter readers that walk that table. It also
	// guards crashed, restartErr and catchup, which the open phase's events
	// write from their own goroutines.
	nodesMu sync.Mutex
	catchup time.Duration // restart → the restarted replica reached its cluster's head
	quit    chan struct{} // closed by halt
	bg      sync.WaitGroup
}

// config translates a workload into the program's deployment configuration.
// Every knob the program would otherwise take from a SHARPER_* environment
// override is set explicitly, so the environment cannot change a run.
func (w workload) config(clusters int, seed int64, dataDir string) Config {
	cfg := Config{
		Model:        CrashOnly,
		Clusters:     clusters,
		F:            1,
		BatchSize:    w.batch,
		VerifyWindow: DefaultVerifyWindow,
		Seed:         seed,
		NoPersist:    true,
	}
	if w.byzantine {
		cfg.Model = Byzantine
	}
	switch w.fabric {
	case fabricSimLAN:
		cfg.Network = DefaultNetConfig()
	case fabricSimWAN:
		cfg.Shaping = Multiregion()
	case fabricTCP:
		cfg.Transport = TransportTCP
	}
	if dataDir != "" {
		cfg.NoPersist = false
		cfg.DataDir = dataDir
		cfg.Sync = SyncGroup
	}
	return cfg
}

// start builds, seeds and starts a deployment of `clusters` clusters for w,
// attaches a driver, and waits for the first committed verdict. The returned
// duration is that whole span: the run's set-up time. scratch is the
// directory durable workloads keep their data under.
func start(w workload, clusters int, seed int64, scratch string, round int) (*system, time.Duration, error) {
	began := time.Now()
	s := &system{w: w, crashed: make(map[NodeID]bool), quit: make(chan struct{})}
	if w.durable {
		s.dataDir = filepath.Join(scratch, fmt.Sprintf("data-%d", round))
		if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
			return nil, 0, fmt.Errorf("create data dir: %w", err)
		}
	}
	dep, err := NewDeployment(w.config(clusters, seed, s.dataDir))
	if err != nil {
		s.removeData()
		return nil, 0, fmt.Errorf("build deployment: %w", err)
	}
	s.dep = dep
	m := mix{shards: clusters, accounts: accountsPerShard, crossPerMille: w.crossOpen}
	if err := checkPlacement(dep, m); err != nil {
		s.stop()
		return nil, 0, err
	}
	dep.SeedAccounts(accountsPerShard, seedBalance)
	s.seeded = int64(clusters) * accountsPerShard * seedBalance
	dep.Start()
	if w.fabric == fabricTCP {
		// The program's own client factory connects the dial-only client
		// fabric to every replica, which is what gives replies a return
		// route; the endpoint it creates is not used.
		dep.NewGatewayClient()
	}
	gw := make(map[ClusterID]gateways)
	for _, c := range dep.Topo.ClusterIDs() {
		g := gateways{members: dep.Topo.Members(c), needed: 1}
		if dep.Topo.ModelOf(c) == Byzantine {
			g.needed = dep.Topo.F(c) + 1
		}
		gw[c] = g
	}
	s.drv = newDriver(driverIDBase+NodeID(round), dep.Net, gw, newGenerator(m, seed))
	if !s.drv.first() {
		s.stop()
		return nil, 0, fmt.Errorf("set-up: the first request did not commit")
	}
	return s, time.Since(began), nil
}

// checkPlacement verifies the generator's modulo account placement against
// the program's shard map: the inputs are only the §4 mix if every account
// lands in the shard the generator meant.
func checkPlacement(dep *Deployment, m mix) error {
	if dep.Shards.NumShards != m.shards {
		return fmt.Errorf("placement: program has %d shards, generator %d", dep.Shards.NumShards, m.shards)
	}
	for c := 0; c < m.shards; c++ {
		for _, k := range []int{0, 1, m.accounts - 1} {
			if got := dep.Shards.Cluster(m.account(c, k)); got != ClusterID(c) {
				return fmt.Errorf("placement: account %d of shard %d maps to %s", k, c, got)
			}
		}
	}
	return nil
}

// victim is the replica a crash workload loses: cluster 0's last member, the
// gateway the driver's cluster-0 requests start at.
func (s *system) victim() NodeID {
	m := s.dep.Topo.Members(0)
	return m[len(m)-1]
}

func (s *system) crashGateway() {
	s.nodesMu.Lock()
	s.crashed[s.victim()] = true
	s.nodesMu.Unlock()
	s.dep.CrashNode(s.victim())
}

// restartGateway brings the victim back as a fresh process would come back:
// a new node with empty memory that rejoins and fetches the chain it missed.
// A background watcher times how long that takes.
func (s *system) restartGateway() {
	s.nodesMu.Lock()
	node, err := s.dep.RestartNode(s.victim())
	if err != nil {
		s.restartErr = err
	} else {
		delete(s.crashed, s.victim())
	}
	s.nodesMu.Unlock()
	if err != nil {
		return
	}
	began := time.Now()
	peer := s.dep.Node(s.dep.Topo.Members(0)[0])
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		for {
			mine, _ := node.View().HeadInfo()
			theirs, _ := peer.View().HeadInfo()
			if mine > 0 && mine >= theirs {
				s.nodesMu.Lock()
				s.catchup = time.Since(began)
				s.nodesMu.Unlock()
				return
			}
			select {
			case <-s.quit:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
}

// quiesce waits until every live replica of each cluster reports the same
// chain head twice in a row, so that the audit compares final states and not
// a backup still applying its last blocks. It gives up after a few seconds;
// the audit then reports whatever divergence is left.
func (s *system) quiesce() {
	type head struct {
		seq  uint64
		hash Hash
	}
	var prev map[NodeID]head
	for i := 0; i < 100; i++ {
		cur := make(map[NodeID]head)
		agreed := true
		for _, c := range s.dep.Topo.ClusterIDs() {
			var first *head
			for _, id := range s.dep.Topo.Members(c) {
				if s.crashed[id] {
					continue
				}
				seq, h := s.dep.Node(id).View().HeadInfo()
				cur[id] = head{seq, h}
				if first == nil {
					first = &head{seq, h}
				} else if *first != cur[id] {
					agreed = false
				}
			}
		}
		if agreed && maps.Equal(prev, cur) {
			return
		}
		prev = cur
		time.Sleep(50 * time.Millisecond)
	}
}

// halt stops the driver and every node; ledgers, stores and the data
// directory stay readable for the audit.
func (s *system) halt() {
	if s.halted {
		return
	}
	s.halted = true
	close(s.quit)
	s.bg.Wait()
	if s.drv != nil {
		s.drv.close()
	}
	if s.dep != nil {
		s.dep.Stop()
	}
}

// stop halts the system and removes its data directory.
func (s *system) stop() {
	s.halt()
	s.removeData()
}

func (s *system) removeData() {
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}
