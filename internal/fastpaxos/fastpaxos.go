// Package fastpaxos builds the FPaxos baseline of §4: Fast Paxos [34] uses
// 3f+1 nodes to reach crash consensus in two communication phases instead
// of Paxos's three; the remaining nodes are passive replicas.
package fastpaxos

import (
	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/fastquorum"
	"sharper/internal/ledger"
	"sharper/internal/replica"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// New builds an FPaxos deployment: total nodes, 3f+1 active, quorum 2f+1.
func New(total, f int, net transport.Config, seed int64) (*replica.Deployment, error) {
	return replica.NewDeployment(replica.Config{
		Model:      types.CrashOnly,
		ActiveSize: 3*f + 1,
		TotalNodes: total,
		F:          f,
		Network:    net,
		Seed:       seed,
		Factory: func(topo *consensus.Topology, self types.NodeID,
			signer crypto.Signer, verifier crypto.Verifier) replica.Engine {
			return fastquorum.New(fastquorum.Config{
				Topology: topo, Cluster: 0, Self: self,
			}, ledger.GenesisHash())
		},
	})
}
