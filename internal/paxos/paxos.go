// Package paxos names the intra-shard crash-fault-tolerant consensus of §3.1
// (Fig. 3a): a primary-led, three-step protocol over 2f+1 nodes. The primary
// assigns a sequence number and the hash of the previous block, multicasts
// an accept message, collects f+1 matching accepted messages (counting
// itself), and multicasts commit. Liveness under primary failure comes from
// a timeout-driven view change (§3.2 "Safety and Liveness").
//
// The protocol is internal/ordering's engine under its crash policy; this
// package is the constructor that picks it.
package paxos

import (
	"sharper/internal/ordering"
	"sharper/internal/types"
)

// Config parametrizes an engine. Signer and Verifier are ignored:
// crash-model messages are unsigned. Timeout defaults to 500 ms.
type Config = ordering.Config

// New creates an engine starting at view 0 with the genesis head.
func New(cfg Config, genesis types.Hash) *ordering.Engine { return ordering.NewCrash(cfg, genesis) }
