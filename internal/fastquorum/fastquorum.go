// Package fastquorum names the two-phase replication protocols the paper
// benchmarks against (§4, §5): protocols that spend extra replicas to drop
// one communication phase. Fast Paxos [34] reaches crash consensus over
// 3f+1 nodes in two steps (propose, vote) instead of Paxos's three, and FaB
// [40] reaches Byzantine consensus over 5f+1 nodes in two steps instead of
// PBFT's three; both decide on n−f matching votes.
//
// The protocol is internal/ordering's engine under its fast policy; this
// package is the constructor that picks it.
package fastquorum

import (
	"sharper/internal/ordering"
	"sharper/internal/types"
)

// Config parametrizes an engine. The topology supplies the quorum (n−f),
// and the cluster's model whether messages are signed (Byzantine: FaB).
// Timeout defaults to 500 ms.
type Config = ordering.Config

// New creates an engine at view 0 with the genesis head.
func New(cfg Config, genesis types.Hash) *ordering.Engine { return ordering.NewFast(cfg, genesis) }
