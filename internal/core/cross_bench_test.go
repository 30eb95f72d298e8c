package core

import (
	"testing"

	"sharper/internal/types"
)

// BenchmarkCrossRound steps one cross-shard batch over two clusters from
// Initiate to quiescence in the engine harness — every node's PROPOSE,
// ACCEPT and COMMIT handling and the chain advance after each decision —
// under each policy. Signatures are stubbed, so this is the engine's cost,
// not the cryptography's.
func BenchmarkCrossRound(b *testing.B) {
	for _, bc := range []struct {
		name  string
		model types.FailureModel
	}{{"crash", types.CrashOnly}, {"byz", types.Byzantine}} {
		b.Run(bc.name, func(b *testing.B) {
			h := newXHarnessFor(b, bc.model, 2)
			p0 := h.topo.Primary(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.sendAll(p0, h.engine(p0).Initiate(xbatch(xtx(uint64(i+1), 0, 1)), h.now))
				h.pump()
			}
			b.StopTimer()
			if got := len(h.decided[p0]); got != b.N {
				b.Fatalf("%d of %d rounds decided at the initiator", got, b.N)
			}
		})
	}
}
