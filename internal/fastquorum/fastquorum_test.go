package fastquorum_test

import (
	"testing"

	"sharper/internal/ordertest"
)

// run runs one row of the ordering contract under both two-phase
// baselines: Fast Paxos (4 crash-prone nodes) and FaB (6 Byzantine ones).
func run(t *testing.T, row string) {
	for _, p := range []ordertest.Policy{ordertest.FastCrash(1), ordertest.FastByz(1)} {
		t.Run(p.Name, func(t *testing.T) { ordertest.RunRow(t, p, row) })
	}
}

func TestTwoPhaseCommit(t *testing.T)         { run(t, "normal case") }
func TestCommitWithFSilent(t *testing.T)      { run(t, "f silent members") }
func TestNoCommitBelowQuorum(t *testing.T)    { run(t, "no decision below quorum") }
func TestSequentialDecisions(t *testing.T)    { run(t, "pipelined") }
func TestViewChangeViaSuspicion(t *testing.T) { run(t, "suspect primary") }
