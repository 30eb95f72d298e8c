// Package consensus holds the building blocks shared by every ordering
// protocol in the repo: the deployment topology (clusters, membership,
// primary election), quorum vote tracking, and the outbound-action /
// decision types protocol engines emit.
//
// Engines in internal/paxos, internal/pbft, and internal/core are pure state
// machines: they consume protocol messages and emit outbound messages plus
// decisions, never touching the network directly. That makes every protocol
// step unit-testable without goroutines.
package consensus

import (
	"fmt"
	"sort"

	"sharper/internal/types"
)

// Topology describes a deployment: the failure model, the per-cluster fault
// bound f, and the ordered membership of every cluster (§2.2).
type Topology struct {
	Model    types.FailureModel
	Clusters map[types.ClusterID]Cluster
}

// Cluster is one cluster's static configuration. F may differ per cluster
// under the §3.4 clustered-network optimization, and Model may override the
// topology default in hybrid deployments (§3.4: private crash-only clouds
// alongside public Byzantine ones).
type Cluster struct {
	ID      types.ClusterID
	F       int
	Members []types.NodeID // ordered; Primary(view) = Members[view % len]
	// Model overrides Topology.Model for this cluster when ModelSet.
	Model    types.FailureModel
	ModelSet bool
}

// UniformTopology builds numClusters clusters, each sized Model.ClusterSize(f),
// with node IDs assigned densely cluster by cluster.
func UniformTopology(model types.FailureModel, numClusters, f int) *Topology {
	t := &Topology{Model: model, Clusters: make(map[types.ClusterID]Cluster, numClusters)}
	size := model.ClusterSize(f)
	next := types.NodeID(0)
	for c := 0; c < numClusters; c++ {
		members := make([]types.NodeID, size)
		for i := range members {
			members[i] = next
			next++
		}
		t.Clusters[types.ClusterID(c)] = Cluster{ID: types.ClusterID(c), F: f, Members: members}
	}
	return t
}

// ClusterIDs returns all clusters in ascending order.
func (t *Topology) ClusterIDs() []types.ClusterID {
	out := make([]types.ClusterID, 0, len(t.Clusters))
	for c := range t.Clusters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllNodes returns every replica in the deployment in ascending order.
func (t *Topology) AllNodes() []types.NodeID {
	var out []types.NodeID
	for _, c := range t.Clusters {
		out = append(out, c.Members...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClusterOf returns the cluster a replica belongs to.
func (t *Topology) ClusterOf(n types.NodeID) (types.ClusterID, bool) {
	for id, c := range t.Clusters {
		for _, m := range c.Members {
			if m == n {
				return id, true
			}
		}
	}
	return 0, false
}

// Members returns the ordered membership of cluster c.
func (t *Topology) Members(c types.ClusterID) []types.NodeID {
	return t.Clusters[c].Members
}

// F returns the fault bound of cluster c.
func (t *Topology) F(c types.ClusterID) int { return t.Clusters[c].F }

// ModelOf returns the failure model cluster c runs under: its own override
// in hybrid deployments, the topology default otherwise.
func (t *Topology) ModelOf(c types.ClusterID) types.FailureModel {
	if cl, ok := t.Clusters[c]; ok && cl.ModelSet {
		return cl.Model
	}
	return t.Model
}

// Hybrid reports whether clusters run under different failure models.
func (t *Topology) Hybrid() bool {
	for c := range t.Clusters {
		if t.ModelOf(c) != t.Model {
			return true
		}
	}
	return false
}

// AnyByzantine reports whether at least one cluster runs under the
// Byzantine model (signatures required deployment-wide).
func (t *Topology) AnyByzantine() bool {
	if t.Model == types.Byzantine {
		return true
	}
	for c := range t.Clusters {
		if t.ModelOf(c) == types.Byzantine {
			return true
		}
	}
	return false
}

// Primary returns the primary of cluster c in the given view: the pre-elected
// node that initiates consensus, rotating on view change.
func (t *Topology) Primary(c types.ClusterID, view uint64) types.NodeID {
	m := t.Clusters[c].Members
	return m[int(view%uint64(len(m)))]
}

// Quorum returns the number of matching votes that decide in cluster c, for
// intra-shard ordering and for the cluster's share of a flattened
// cross-shard vote (§3.1–§3.3) alike: every member but f. At the minimal
// sizes that is f+1 of 2f+1 (crash), 2f+1 of 3f+1 (Byzantine), and for the
// §4 two-phase baselines 2f+1 of 3f+1 and 4f+1 of 5f+1. At any size two
// quorums share n−2f members — at least one in a valid crash cluster, at
// least f+1 in a valid Byzantine one — and f silent members cannot block
// one. A larger cluster (the §3.4 planners absorb leftover nodes into a
// group's last cluster) therefore needs a larger quorum, not the minimal
// size's.
func (t *Topology) Quorum(c types.ClusterID) int {
	cl := t.Clusters[c]
	return len(cl.Members) - cl.F
}

// InvolvedNodes returns every node of every involved cluster, the multicast
// destination set of the flattened protocol.
func (t *Topology) InvolvedNodes(set types.ClusterSet) []types.NodeID {
	var out []types.NodeID
	for _, c := range set {
		out = append(out, t.Clusters[c].Members...)
	}
	return out
}

// SuperPrimary returns the node that should initiate a cross-shard
// transaction over the involved set per the §3.2 super-primary rule: the
// primary of min(P) in that cluster's current view.
func (t *Topology) SuperPrimary(set types.ClusterSet, view func(types.ClusterID) uint64) types.NodeID {
	c := set.Min()
	return t.Primary(c, view(c))
}

// Validate checks structural invariants: every cluster is large enough for
// its fault bound and no node belongs to two clusters.
func (t *Topology) Validate() error {
	seen := make(map[types.NodeID]types.ClusterID)
	for id, c := range t.Clusters {
		model := t.ModelOf(id)
		if need := model.ClusterSize(c.F); len(c.Members) < need {
			return fmt.Errorf("consensus: cluster %s has %d members, needs %d for f=%d (%s)",
				id, len(c.Members), need, c.F, model)
		}
		for _, m := range c.Members {
			if other, dup := seen[m]; dup {
				return fmt.Errorf("consensus: node %s in clusters %s and %s", m, other, id)
			}
			seen[m] = id
		}
	}
	return nil
}

// Outbound is a message a protocol engine wants sent.
type Outbound struct {
	To  []types.NodeID
	Env *types.Envelope
}

// Decision is an ordering decision: commit block b as the next block of the
// engine's cluster view(s).
type Decision struct {
	Block *types.Block
	Seq   uint64
}
