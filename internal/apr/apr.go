// Package apr builds the active/passive replication baselines of §4: APR-C
// (crash) orders transactions with Paxos among 2f+1 active replicas, APR-B
// (Byzantine) with PBFT among 3f+1 active replicas, and streams execution
// results to the remaining passive replicas [27].
package apr

import (
	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/paxos"
	"sharper/internal/pbft"
	"sharper/internal/replica"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// NewCrash builds an APR-C deployment: total nodes, 2f+1 of them active.
func NewCrash(total, f int, net transport.Config, seed int64) (*replica.Deployment, error) {
	return replica.NewDeployment(replica.Config{
		Model:      types.CrashOnly,
		ActiveSize: 2*f + 1,
		TotalNodes: total,
		F:          f,
		Network:    net,
		Seed:       seed,
		Factory: func(topo *consensus.Topology, self types.NodeID,
			signer crypto.Signer, verifier crypto.Verifier) replica.Engine {
			return paxos.New(paxos.Config{
				Topology: topo, Cluster: 0, Self: self,
			}, ledger.GenesisHash())
		},
	})
}

// NewByzantine builds an APR-B deployment: total nodes, 3f+1 active.
func NewByzantine(total, f int, net transport.Config, seed int64) (*replica.Deployment, error) {
	return replica.NewDeployment(replica.Config{
		Model:      types.Byzantine,
		ActiveSize: 3*f + 1,
		TotalNodes: total,
		F:          f,
		Network:    net,
		Sign:       true,
		Seed:       seed,
		Factory: func(topo *consensus.Topology, self types.NodeID,
			signer crypto.Signer, verifier crypto.Verifier) replica.Engine {
			return pbft.New(pbft.Config{
				Topology: topo, Cluster: 0, Self: self,
				Signer: signer, Verifier: verifier,
			}, ledger.GenesisHash())
		},
	})
}
