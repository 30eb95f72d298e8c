// Package pbft names the intra-shard Byzantine-fault-tolerant consensus of
// §3.1 (Fig. 3b): PBFT's normal-case agreement over 3f+1 nodes (pre-prepare,
// prepare with 2f matching votes, commit with 2f+1 matching votes) plus the
// timeout-driven view change that deposes a faulty primary. Messages are
// signed and verified per §2.1.
//
// The protocol is internal/ordering's engine under its Byzantine policy;
// this package is the constructor that picks it.
package pbft

import (
	"sharper/internal/ordering"
	"sharper/internal/types"
)

// Config parametrizes an engine. A nil Signer or Verifier means no
// signatures. Timeout defaults to one second.
type Config = ordering.Config

// New creates an engine at view 0 with the genesis head.
func New(cfg Config, genesis types.Hash) *ordering.Engine {
	return ordering.NewByzantine(cfg, genesis)
}
