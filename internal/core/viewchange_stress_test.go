package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sharper/internal/types"
)

// TestViewChangeDivergenceStress hammers a deployment whose suspicion timer
// is short enough that view changes fire constantly under load, with
// message drops forcing value recovery to actually matter, then audits that
// no two replicas of a cluster ever committed different blocks at the same
// height. This reproduces (in-process, deterministically enough to iterate
// on) the chain divergence the multi-process TCP deployment exposed: a
// deposed primary completing a commit quorum whose value the new view
// failed to recover.
func TestViewChangeDivergenceStress(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runViewChangeStress(t, seed, TransportSim)
		})
	}
}

// TestViewChangeDivergenceStressTCP runs the same audit over real loopback
// sockets, where scheduling jitter (not injected drops) drives the view
// changes — the regime that exposed the original divergence.
func TestViewChangeDivergenceStressTCP(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runViewChangeStress(t, seed, TransportTCP)
		})
	}
}

func runViewChangeStress(t *testing.T, seed int64, tr TransportKind) {
	cfg := Config{
		Model:        types.CrashOnly,
		Clusters:     2,
		F:            1,
		Seed:         seed,
		Transport:    tr,
		IntraTimeout: 25 * time.Millisecond, // spurious view changes under load
		TickInterval: 2 * time.Millisecond,
	}
	if tr == TransportSim {
		cfg.Network.DropProb = 0.01
		cfg.Network.Seed = seed
	}
	d, err := testDeployment(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SeedAccounts(128, 1_000_000)
	d.Start()
	defer d.Stop()

	const clients = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := d.NewClient()
			c.Timeout = 150 * time.Millisecond
			c.MaxAttempts = 4
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var ops []types.Op
				if n%3 == 0 { // cross-shard
					ops = []types.Op{{
						From:   d.Shards.AccountInShard(0, uint64(k*16+n%16)),
						To:     d.Shards.AccountInShard(1, uint64(k*16+n%16)),
						Amount: 1,
					}}
				} else {
					sh := types.ClusterID(n % 2)
					ops = []types.Op{{
						From:   d.Shards.AccountInShard(sh, uint64(k*16+n%16)),
						To:     d.Shards.AccountInShard(sh, uint64((k*16+n%16+1)%128)),
						Amount: 1,
					}}
				}
				c.Transfer(ops)
			}
		}(i)
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	// Let in-flight work settle, then audit: same height ⇒ same block.
	time.Sleep(500 * time.Millisecond)
	for _, cid := range d.Topo.ClusterIDs() {
		members := d.Topo.Members(cid)
		ref := d.Node(members[0]).View()
		for _, m := range members[1:] {
			v := d.Node(m).View()
			n := ref.Len()
			if v.Len() < n {
				n = v.Len()
			}
			for i := 0; i < n; i++ {
				if ref.Block(i).Hash() != v.Block(i).Hash() {
					for _, mm := range members {
						if pe, ok := d.Node(mm).intra.(interface{ DebugTrace() []string }); ok {
							tr := pe.DebugTrace()
							t.Logf("=== trace %s (last %d) ===", mm, len(tr))
							for _, line := range tr {
								t.Log("  " + line)
							}
						}
					}
					t.Fatalf("cluster %s DIVERGED at height %d: %s=%v (inv=%v) vs %s=%v (inv=%v)",
						cid, i,
						members[0], ref.Block(i).Txs[0].ID, ref.Block(i).Involved(),
						m, v.Block(i).Txs[0].ID, v.Block(i).Involved())
				}
			}
		}
	}
}
