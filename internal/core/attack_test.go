package core

import (
	"sync"
	"testing"
	"time"

	"sharper/internal/adversary"
	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/slasher"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// The attack matrix: every cell compromises at most f nodes per cluster
// through the adversary fabric decorator and asserts (a) safety — the DAG
// audit passes and honest replicas never diverge — and (b) detection — the
// equivocation oracle (slasher.Witness, reading every replica's inbox)
// proves each equivocation variant against exactly the compromised node,
// while non-equivocating behaviour (withholding, replay, crashes,
// duplication) yields no proof.

// newAttackDeployment builds a deployment with the attack injector and the
// equivocation oracle wrapped around every replica's fabric.
func newAttackDeployment(t *testing.T, cfg Config) (*Deployment, *adversary.Adversary, *slasher.Witness) {
	t.Helper()
	if cfg.Topology == nil {
		cfg.Topology = consensus.UniformTopology(cfg.Model, cfg.Clusters, cfg.F)
	}
	adv := adversary.New(cfg.Topology)
	// Every receiver verifies with the deployment keyring, built inside
	// NewDeployment; the witness asks for it on the first claim it indexes.
	var d *Deployment
	w := slasher.NewWitness(cfg.Topology, func(types.NodeID) slasher.SigVerifier { return d.Keyring })
	t.Cleanup(w.Close)
	cfg.WrapFabric = func(id types.NodeID, fab transport.Fabric) transport.Fabric {
		return w.Wrap(id, adv.Wrap(id, fab))
	}
	d, err := testDeployment(t, cfg)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	d.SeedAccounts(64, 1_000_000)
	d.Start()
	t.Cleanup(d.Stop)
	return d, adv, w
}

// signerOf hands the adversary a compromised node's own signer — under the
// crash model signatures are not in play, so any signer does.
func signerOf(t *testing.T, d *Deployment, id types.NodeID) crypto.Signer {
	t.Helper()
	if !d.Topo.AnyByzantine() {
		return crypto.NoopSigner{}
	}
	s, err := d.Keyring.SignerFor(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pubOnlyVerifier rebuilds a verification-only keyring holding nothing but
// the deployment's public keys — the position of an external auditor judging
// fraud proofs offline.
func pubOnlyVerifier(t *testing.T, d *Deployment) slasher.SigVerifier {
	t.Helper()
	kr, ok := d.Keyring.(*crypto.Keyring)
	if !ok {
		t.Fatal("offline verification needs the ed25519 keyring (Config.Ed25519)")
	}
	pub := crypto.NewKeyring()
	for _, id := range d.Topo.AllNodes() {
		pk, ok := kr.PublicKey(id)
		if !ok {
			t.Fatalf("no public key for %s", id)
		}
		pub.AddPublicKey(id, pk)
	}
	return pub
}

// assertProofsName checks that every gathered proof names the one compromised
// node (zero false positives) and, when an auditor is given, that each proof
// convinces a public-keys-only verifier.
func assertProofsName(t *testing.T, proofs []*slasher.FraudProof, offender types.NodeID, auditor slasher.SigVerifier) {
	t.Helper()
	if len(proofs) == 0 {
		t.Fatalf("no fraud proofs; expected evidence against %s", offender)
	}
	for _, p := range proofs {
		if p.Offender != offender {
			t.Fatalf("proof names %s; the only compromised node is %s", p.Offender, offender)
		}
		if auditor == nil {
			continue
		}
		if err := p.Verify(auditor); err != nil {
			t.Fatalf("offline verification of %s proof against %s: %v", p.Kind, p.Offender, err)
		}
	}
}

func runIntra(t *testing.T, d *Deployment, c *Client, n int, cluster types.ClusterID) {
	t.Helper()
	for i := 0; i < n; i++ {
		ok, _, err := c.Transfer(intraOps(d, cluster))
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("tx %d rejected", i)
		}
	}
}

// TestEquivocatingPrimarySlashed: the view-0 primary splits conflicting
// pre-prepares across overlapping halves. The honest quorum must keep
// committing one history, and the oracle must prove it from the overlap
// replica's inbox in a form an external auditor verifies with public keys
// alone.
func TestEquivocatingPrimarySlashed(t *testing.T) {
	d, adv, w := newAttackDeployment(t, Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 42, Ed25519: true,
		IntraTimeout: 200 * time.Millisecond,
	})
	primary := d.Topo.Members(0)[0]
	adv.Compromise(primary, signerOf(t, d, primary), adversary.Rule{Kind: adversary.Equivocate, Limit: 2})

	c := d.NewClient()
	c.Timeout = 3 * time.Second
	runIntra(t, d, c, 8, 0)
	if adv.Applied(primary, adversary.Equivocate) == 0 {
		t.Fatal("equivocation never fired")
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify under equivocation: %v", err)
	}
	assertProofsName(t, w.Proofs(), primary, pubOnlyVerifier(t, d))
}

// TestDoubleVotingBackupSlashed: a backup sends conflicting prepares for one
// slot. Commits continue over the honest quorum and the witness produces a
// double-vote proof.
func TestDoubleVotingBackupSlashed(t *testing.T) {
	d, adv, w := newAttackDeployment(t, Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 43, Ed25519: true,
	})
	backup := d.Topo.Members(0)[2]
	adv.Compromise(backup, signerOf(t, d, backup), adversary.Rule{
		Kind: adversary.Equivocate, Types: []types.MsgType{types.MsgVote}, Limit: 2,
	})

	c := d.NewClient()
	runIntra(t, d, c, 6, 0)
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify under double voting: %v", err)
	}
	proofs := w.Proofs()
	assertProofsName(t, proofs, backup, pubOnlyVerifier(t, d))
	hasVote := false
	for _, p := range proofs {
		if p.Kind == slasher.FraudDoubleVote {
			hasVote = true
		}
	}
	if !hasVote {
		t.Fatalf("no double-vote proof among %d proofs", len(proofs))
	}
}

// TestTamperedPrePrepareSlashed: the primary corrupts the digest for one
// victim and re-signs. The victim's engine rejects the proposal, and the
// oracle pairs the tampered pre-prepare in the victim's inbox with the
// primary's own commit for the same slot — a cross-class double proposal.
func TestTamperedPrePrepareSlashed(t *testing.T) {
	d, adv, w := newAttackDeployment(t, Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 44, Ed25519: true,
	})
	primary := d.Topo.Members(0)[0]
	victim := d.Topo.Members(0)[2]
	adv.Compromise(primary, signerOf(t, d, primary), adversary.Rule{
		Kind: adversary.Tamper, Victims: []types.NodeID{victim}, Limit: 3,
	})

	c := d.NewClient()
	runIntra(t, d, c, 6, 0)
	if adv.Applied(primary, adversary.Tamper) == 0 {
		t.Fatal("tampering never fired")
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify under tampering: %v", err)
	}
	assertProofsName(t, w.Proofs(), primary, pubOnlyVerifier(t, d))
}

// TestWithholdingIsSafeAndUnslashed: a backup silently drops its votes to
// everyone — indistinguishable from a crash, tolerated by the quorum, and
// explicitly NOT slashable (silence is not signed equivocation).
func TestWithholdingIsSafeAndUnslashed(t *testing.T) {
	d, adv, w := newAttackDeployment(t, Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 45,
	})
	backup := d.Topo.Members(0)[1]
	adv.Compromise(backup, signerOf(t, d, backup), adversary.Rule{
		Kind: adversary.Withhold, Types: []types.MsgType{types.MsgVote, types.MsgCommit},
	})

	c := d.NewClient()
	runIntra(t, d, c, 6, 0)
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify under withholding: %v", err)
	}
	if proofs := w.Proofs(); len(proofs) != 0 {
		t.Fatalf("withholding produced %d fraud proofs; silence must not be slashable (first: %s)",
			len(proofs), proofs[0].Kind)
	}
}

// TestVCSpamSlashed: a backup floods its cluster with conflicting view-change
// pairs. The noise must not disturb commits (one node's suspicion is below
// the f+1 join threshold) and each pair is provable equivocation.
func TestVCSpamSlashed(t *testing.T) {
	d, adv, w := newAttackDeployment(t, Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 46, Ed25519: true,
	})
	backup := d.Topo.Members(0)[3]
	adv.Compromise(backup, signerOf(t, d, backup), adversary.Rule{Kind: adversary.VCSpam, Limit: 2})

	c := d.NewClient()
	runIntra(t, d, c, 8, 0)
	if adv.Applied(backup, adversary.VCSpam) == 0 {
		t.Fatal("view-change spam never fired")
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify under view-change spam: %v", err)
	}
	proofs := w.Proofs()
	assertProofsName(t, proofs, backup, pubOnlyVerifier(t, d))
	hasVC := false
	for _, p := range proofs {
		if p.Kind == slasher.FraudConflictingViewChange {
			hasVC = true
		}
	}
	if !hasVC {
		t.Fatalf("no conflicting-view-change proof among %d proofs", len(proofs))
	}
}

// TestReplayedVotesNotDoubleCounted pins replay rejection for both engines:
// with enough honest nodes crashed that a quorum is only reachable by
// counting a replayed vote twice, nothing may commit; after the crashed
// nodes return, everything commits exactly once.
func TestReplayedVotesNotDoubleCounted(t *testing.T) {
	cases := []struct {
		name  string
		model types.FailureModel
		f     int // crash: n=2f+1 quorum f+1; byz: n=3f+1 quorum 2f+1
		crash int // nodes to crash so the live count is one below quorum
	}{
		{"pbft", types.Byzantine, 1, 2},  // 4 nodes, quorum 3, 2 live
		{"paxos", types.CrashOnly, 2, 3}, // 5 nodes, quorum 3, 2 live
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, adv, w := newAttackDeployment(t, Config{
				Model: tc.model, Clusters: 2, F: tc.f, Seed: 47,
			})
			members := d.Topo.Members(0)
			replayer := members[1]
			adv.Compromise(replayer, signerOf(t, d, replayer), adversary.Rule{Kind: adversary.Replay})
			for _, id := range members[2 : 2+tc.crash] {
				d.CrashNode(id)
			}

			c := d.NewClient()
			c.Timeout = 250 * time.Millisecond
			c.MaxAttempts = 2
			if _, _, err := c.Transfer(intraOps(d, 0)); err == nil {
				t.Fatal("transfer committed below quorum — a replayed vote was double-counted")
			}
			// Settle in-flight traffic, then check no replica committed.
			time.Sleep(200 * time.Millisecond)
			for _, id := range members {
				if got := d.Node(id).Committed(); got != 0 {
					t.Fatalf("node %s committed %d transactions below quorum", id, got)
				}
			}

			for _, id := range members[2 : 2+tc.crash] {
				d.Faults().Restart(id)
			}
			c.Timeout = 3 * time.Second
			c.MaxAttempts = 8
			if ok, _, err := c.Transfer(intraOps(d, 0)); err != nil || !ok {
				t.Fatalf("transfer after restart: ok=%v err=%v", ok, err)
			}
			waitQuiesce(t, d)
			if err := d.DAG().Verify(); err != nil {
				t.Fatalf("DAG verify after replay window: %v", err)
			}
			// Exactly-once: every replica of the cluster converges to one
			// common commit count — laggards catch up over chain sync, a
			// wedged view change may resolve late — and the debited balance
			// matches that count exactly (a double-applied replay would drain
			// extra). At most the two issued transfers may commit.
			acct := d.Shards.AccountInShard(0, 0)
			deadline := time.Now().Add(10 * time.Second)
			for {
				ref := d.Node(members[0]).Committed()
				agreed := ref >= 1 && ref <= 2
				for _, id := range members {
					n := d.Node(id)
					if n.Committed() != ref || n.Store().Balance(acct) != 1_000_000-5*ref {
						agreed = false
					}
				}
				if agreed {
					break
				}
				if time.Now().After(deadline) {
					for _, id := range members {
						n := d.Node(id)
						t.Logf("node %s: committed=%d balance=%d", id, n.Committed(), n.Store().Balance(acct))
					}
					t.Fatal("replicas never converged to one exactly-once history")
				}
				time.Sleep(20 * time.Millisecond)
			}
			if proofs := w.Proofs(); len(proofs) != 0 {
				t.Fatalf("byte-identical replay produced %d fraud proofs; want none", len(proofs))
			}
		})
	}
}

// TestLockStarvationRecovers: the cross-shard initiator proposes only to its
// own cluster (which grants and locks) and suppresses the withdrawal, so
// locks ride out the §3.2 timeout. Once the starvation budget is spent the
// transaction commits, and the audit stays clean. Runs under both cross-shard
// engines.
func TestLockStarvationRecovers(t *testing.T) {
	for _, model := range []types.FailureModel{types.CrashOnly, types.Byzantine} {
		t.Run(model.String(), func(t *testing.T) {
			d, adv, _ := newAttackDeployment(t, Config{
				Model: model, Clusters: 2, F: 1, Seed: 48,
				LockTimeout:  150 * time.Millisecond,
				RetryTimeout: 250 * time.Millisecond,
			})
			// Super-primary routing sends {0,1} transactions through the
			// primary of cluster 0 — compromise exactly that initiator.
			initiator := d.Topo.Members(0)[0]
			adv.Compromise(initiator, signerOf(t, d, initiator), adversary.Rule{Kind: adversary.Starve, Limit: 2})

			c := d.NewClient()
			c.Timeout = 4 * time.Second
			ok, _, err := c.Transfer(crossOps(d, 0, 1))
			if err != nil {
				t.Fatalf("cross transfer never recovered from starvation: %v", err)
			}
			if !ok {
				t.Fatal("cross transfer rejected")
			}
			if adv.Applied(initiator, adversary.Starve) == 0 {
				t.Fatal("starvation never fired")
			}
			waitQuiesce(t, d)
			dag := d.DAG()
			if err := dag.Verify(); err != nil {
				t.Fatalf("DAG verify after starvation: %v", err)
			}
			if err := dag.VerifyPairwiseOrder(); err != nil {
				t.Fatalf("pairwise order after starvation: %v", err)
			}
			var expiries uint64
			for _, n := range d.Nodes() {
				expiries += n.Counters().LockExpiries
			}
			if expiries == 0 {
				t.Fatal("no lock expiries recorded — the grant-then-withhold never starved a lock")
			}
		})
	}
}

// TestHonestRunYieldsNoProofs is the false-positive control: a fully honest
// deployment with duplicated deliveries, a primary crash, a real view
// change, and a storage-backed restart. The oracle must prove nothing
// against any replica. The hybrid case runs a crash cluster beside a
// Byzantine one: the ordering kinds are shared, so the oracle must index no
// claim of the crash cluster's unsigned traffic.
func TestHonestRunYieldsNoProofs(t *testing.T) {
	hybrid := &consensus.Topology{Model: types.CrashOnly, Clusters: map[types.ClusterID]consensus.Cluster{
		0: {ID: 0, F: 1, Members: []types.NodeID{0, 1, 2}, Model: types.CrashOnly, ModelSet: true},
		1: {ID: 1, F: 1, Members: []types.NodeID{3, 4, 5, 6}, Model: types.Byzantine, ModelSet: true},
	}}
	for _, c := range []struct {
		name   string
		cfg    Config
		victim types.ClusterID // the cluster whose primary crashes and restarts
	}{
		{"byzantine", Config{Model: types.Byzantine, Clusters: 2, F: 1}, 0},
		{"hybrid", Config{Model: types.CrashOnly, Topology: hybrid}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := transport.DefaultConfig()
			net.DupProb = 0.05
			cfg := c.cfg
			cfg.Seed, cfg.Ed25519, cfg.Network = 49, true, net
			cfg.DataDir, cfg.IntraTimeout = t.TempDir(), 150*time.Millisecond
			d, _, w := newAttackDeployment(t, cfg)
			honestRun(t, d, c.victim)
			for _, cl := range d.Topo.ClusterIDs() {
				byz := d.Topo.ModelOf(cl) == types.Byzantine
				if n := w.Indexed(cl); (n > 0) != byz {
					t.Fatalf("cluster %d (Byzantine: %v): the oracle indexed %d claims", cl, byz, n)
				}
			}
			if proofs := w.Proofs(); len(proofs) != 0 {
				t.Fatalf("%d fraud proofs after an honest run (first: %s against %s)",
					len(proofs), proofs[0].Kind, proofs[0].Offender)
			}
		})
	}
}

// honestRun drives intra-shard traffic on both clusters, cross-shard
// traffic between them, and a crash and restart of the victim cluster's
// primary, then waits for quiescence and audits the DAG.
func honestRun(t *testing.T, d *Deployment, victim types.ClusterID) {
	t.Helper()
	c := d.NewClient()
	c.Timeout = 3 * time.Second
	runIntra(t, d, c, 6, 0)
	runIntra(t, d, c, 2, 1)
	if _, _, err := c.Transfer(crossOps(d, 0, 1)); err != nil {
		t.Fatalf("cross transfer: %v", err)
	}

	// Concurrent intra + cross traffic drives cross-shard SyncChainHead slot
	// re-binds: a primary honestly re-proposes a superseded slot with a new
	// parent and a different digest, and honest backups re-vote it. The
	// oracle must read that as a re-bind, not equivocation (votes carry
	// their parent precisely for this).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := d.NewClient()
			wc.Timeout = 3 * time.Second
			for i := 0; i < 5; i++ {
				if (w+i)%2 == 0 {
					wc.Transfer(crossOps(d, 0, 1))
				} else {
					wc.Transfer(intraOps(d, types.ClusterID(w%2)))
				}
			}
		}(w)
	}
	wg.Wait()

	primary := d.Topo.Members(victim)[0]
	d.CrashNode(primary)
	runIntra(t, d, c, 4, victim) // drives a real view change past the dead primary
	if _, err := d.RestartNode(primary); err != nil {
		t.Fatal(err)
	}
	runIntra(t, d, c, 4, victim)

	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify: %v", err)
	}
}

// TestEquivocatingPrimarySlashedTCP runs the flagship detection cell over
// real sockets: the injector wraps each replica's TCP fabric, proving the
// harness is transport-agnostic.
func TestEquivocatingPrimarySlashedTCP(t *testing.T) {
	d, adv, w := newAttackDeployment(t, Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 50, Ed25519: true,
		Transport: TransportTCP, IntraTimeout: 300 * time.Millisecond,
	})
	primary := d.Topo.Members(0)[0]
	adv.Compromise(primary, signerOf(t, d, primary), adversary.Rule{Kind: adversary.Equivocate, Limit: 1})

	c := d.NewClient()
	c.Timeout = 3 * time.Second
	runIntra(t, d, c, 4, 0)
	if adv.Applied(primary, adversary.Equivocate) == 0 {
		t.Fatal("equivocation never fired")
	}
	waitQuiesce(t, d)
	if err := d.DAG().Verify(); err != nil {
		t.Fatalf("DAG verify over TCP: %v", err)
	}
	assertProofsName(t, w.Proofs(), primary, pubOnlyVerifier(t, d))
}

// TestReplayedVotesNotDoubleCountedTCP is the socket-backed half of the
// replay cell: with two backups' fabrics closed, the replaying backup's
// duplicated votes must not conjure a quorum. (No restart over TCP — that
// needs a process restart; the sim variant covers recovery.)
func TestReplayedVotesNotDoubleCountedTCP(t *testing.T) {
	d, adv, _ := newAttackDeployment(t, Config{
		Model: types.Byzantine, Clusters: 2, F: 1, Seed: 51, Transport: TransportTCP,
	})
	members := d.Topo.Members(0)
	replayer := members[1]
	adv.Compromise(replayer, signerOf(t, d, replayer), adversary.Rule{Kind: adversary.Replay})
	d.CrashNode(members[2])
	d.CrashNode(members[3])

	c := d.NewClient()
	c.Timeout = 300 * time.Millisecond
	c.MaxAttempts = 2
	if _, _, err := c.Transfer(intraOps(d, 0)); err == nil {
		t.Fatal("transfer committed below quorum over TCP — a replayed vote was double-counted")
	}
	time.Sleep(200 * time.Millisecond)
	for _, id := range members[:2] {
		if got := d.Node(id).Committed(); got != 0 {
			t.Fatalf("node %s committed %d transactions below quorum", id, got)
		}
	}
}
