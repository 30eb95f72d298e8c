package ordering_test

import (
	"math/rand"
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/paxos"
	"sharper/internal/pbft"
	"sharper/internal/types"
)

// roundEngine is what a round needs of an engine. The benchmark names only
// paxos.New and pbft.New, so this file measures any commit that has them.
type roundEngine interface {
	Propose(txs []*types.Transaction, now time.Time) ([]consensus.Outbound, uint64)
	Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision)
}

// BenchmarkOrderingRound is the engine layer's microbenchmark: the primary
// proposes one batch of 16 and every resulting message is stepped at its
// recipient until none is left — no fabric, no node runtime, no storage. The
// crash cluster has 3 members; the Byzantine one has 4 and signs and
// verifies inline with MAC authenticators.
func BenchmarkOrderingRound(b *testing.B) {
	const batch = 16
	for _, bc := range []struct {
		name  string
		model types.FailureModel
	}{{"crash-3", types.CrashOnly}, {"byz-4-mac", types.Byzantine}} {
		b.Run(bc.name, func(b *testing.B) {
			topo := consensus.UniformTopology(bc.model, 1, 1)
			engines := make(map[types.NodeID]roundEngine)
			keys := crypto.NewMACKeyring()
			rng := rand.New(rand.NewSource(1))
			for _, id := range topo.AllNodes() {
				if bc.model == types.CrashOnly {
					engines[id] = paxos.New(paxos.Config{Topology: topo, Self: id, Timeout: time.Hour}, ledger.GenesisHash())
					continue
				}
				if err := keys.Generate(id, rng); err != nil {
					b.Fatal(err)
				}
				signer, err := keys.SignerFor(id)
				if err != nil {
					b.Fatal(err)
				}
				engines[id] = pbft.New(pbft.Config{Topology: topo, Self: id, Signer: signer, Verifier: keys, Timeout: time.Hour}, ledger.GenesisHash())
			}
			primary := engines[topo.Primary(0, 0)]
			txs := make([]*types.Transaction, b.N*batch)
			for i := range txs {
				txs[i] = &types.Transaction{
					ID:       types.TxID{Client: types.ClientIDBase, Seq: uint64(i + 1)},
					Client:   types.ClientIDBase,
					Ops:      []types.Op{{From: 0, To: 1, Amount: 1}},
					Involved: types.ClusterSet{0},
				}
			}
			type routed struct {
				to  types.NodeID
				env *types.Envelope
			}
			var queue []routed
			send := func(outs []consensus.Outbound) {
				for _, o := range outs {
					for _, to := range o.To {
						queue = append(queue, routed{to, o.Env})
					}
				}
			}
			now := time.Unix(0, 0)
			decided := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outs, _ := primary.Propose(txs[i*batch:(i+1)*batch], now)
				send(outs)
				for head := 0; head < len(queue); head++ {
					outs, decs := engines[queue[head].to].Step(queue[head].env, now)
					send(outs)
					decided += len(decs)
				}
				queue = queue[:0]
			}
			b.StopTimer()
			if want := b.N * len(engines); decided != want {
				b.Fatalf("%d decisions, want %d (every replica decides every round)", decided, want)
			}
		})
	}
}
