// Package fab builds the FaB baseline of §4: Fast Byzantine consensus [40]
// uses 5f+1 nodes to reach agreement in two communication phases instead of
// PBFT's three; the remaining nodes are passive replicas.
package fab

import (
	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/fastquorum"
	"sharper/internal/ledger"
	"sharper/internal/replica"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// New builds a FaB deployment: total nodes, 5f+1 active, quorum 4f+1.
func New(total, f int, net transport.Config, seed int64) (*replica.Deployment, error) {
	return replica.NewDeployment(replica.Config{
		Model:      types.Byzantine,
		ActiveSize: 5*f + 1,
		TotalNodes: total,
		F:          f,
		Network:    net,
		Sign:       true,
		Seed:       seed,
		Factory: func(topo *consensus.Topology, self types.NodeID,
			signer crypto.Signer, verifier crypto.Verifier) replica.Engine {
			return fastquorum.New(fastquorum.Config{
				Topology: topo, Cluster: 0, Self: self, Signer: signer, Verifier: verifier,
			}, ledger.GenesisHash())
		},
	})
}
