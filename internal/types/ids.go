// Package types defines the wire-level vocabulary shared by every SharPer
// subsystem: node/cluster identifiers, transactions, blocks, protocol
// messages, and a deterministic binary codec for all of them.
//
// The paper (§2.3) uses single-transaction blocks; Block generalizes that to
// a batch of transactions plus the hash links that place it in the DAG
// ledger, with the single-transaction block as the batch-of-1 special case.
package types

import (
	"fmt"
	"sort"
)

// NodeID uniquely identifies a node (replica or client endpoint) in the
// deployment. Replica IDs are assigned densely from 0; client IDs start at
// ClientIDBase so the two ranges never collide.
type NodeID uint32

// ClientIDBase is the first NodeID used for clients. Replicas always have
// IDs below this value.
const ClientIDBase NodeID = 1 << 20

// IsClient reports whether the ID belongs to a client endpoint.
func (n NodeID) IsClient() bool { return n >= ClientIDBase }

func (n NodeID) String() string {
	if n.IsClient() {
		return fmt.Sprintf("c%d", uint32(n-ClientIDBase))
	}
	return fmt.Sprintf("n%d", uint32(n))
}

// ClusterID identifies a cluster (and therefore the data shard the cluster
// maintains — the paper's p_i / d_i pairing).
type ClusterID uint16

func (c ClusterID) String() string { return fmt.Sprintf("p%d", uint16(c)) }

// ClusterSet is an ordered, duplicate-free set of clusters involved in a
// transaction. The order is ascending by ClusterID so that two nodes
// computing the set for the same transaction agree byte-for-byte.
type ClusterSet []ClusterID

// NewClusterSet returns the normalized (sorted, deduplicated) set.
func NewClusterSet(ids ...ClusterID) ClusterSet {
	cs := make(ClusterSet, 0, len(ids))
	seen := make(map[ClusterID]bool, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			cs = append(cs, id)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

// Contains reports whether id is a member of the set.
func (cs ClusterSet) Contains(id ClusterID) bool {
	for _, c := range cs {
		if c == id {
			return true
		}
	}
	return false
}

// Overlaps reports whether the two sets share at least one cluster.
// Cross-shard transactions with non-overlapping sets may commit in parallel
// (§1, §3.2).
func (cs ClusterSet) Overlaps(other ClusterSet) bool {
	i, j := 0, 0
	for i < len(cs) && j < len(other) {
		switch {
		case cs[i] == other[j]:
			return true
		case cs[i] < other[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Min returns the smallest cluster in the set. The paper's super-primary
// rule (§3.2) routes a cross-shard transaction over set P to the primary of
// min(P). Min panics on an empty set: an empty involved-set is a programming
// error upstream.
func (cs ClusterSet) Min() ClusterID {
	if len(cs) == 0 {
		panic("types: Min of empty ClusterSet")
	}
	return cs[0]
}

// Equal reports whether the two normalized sets are identical.
func (cs ClusterSet) Equal(other ClusterSet) bool {
	if len(cs) != len(other) {
		return false
	}
	for i := range cs {
		if cs[i] != other[i] {
			return false
		}
	}
	return true
}

func (cs ClusterSet) String() string {
	s := "{"
	for i, c := range cs {
		if i > 0 {
			s += ","
		}
		s += c.String()
	}
	return s + "}"
}

// FailureModel selects the fault assumption a deployment runs under (§2.1).
type FailureModel uint8

const (
	// CrashOnly nodes may stop and restart but never lie. Clusters need
	// 2f+1 nodes and intra-shard consensus is Paxos.
	CrashOnly FailureModel = iota
	// Byzantine nodes may behave arbitrarily. Clusters need 3f+1 nodes and
	// intra-shard consensus is PBFT.
	Byzantine
)

func (m FailureModel) String() string {
	switch m {
	case CrashOnly:
		return "crash"
	case Byzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("FailureModel(%d)", uint8(m))
	}
}

// ClusterSize returns the minimum cluster size tolerating f faults under the
// model: 2f+1 for crash, 3f+1 for Byzantine.
func (m FailureModel) ClusterSize(f int) int {
	if m == Byzantine {
		return 3*f + 1
	}
	return 2*f + 1
}
