package sharper

import (
	"os"
	"testing"

	"sharper/internal/core"
	"sharper/internal/matrix"
)

// TestMain removes the data directories the examples' deployments got under
// CI's persistence matrix job (an example has no testing.TB to own them).
func TestMain(m *testing.M) {
	code := m.Run()
	matrix.Cleanup()
	os.Exit(code)
}

// WithMatrix is o under CI's configuration matrix (internal/matrix): every
// knob the test leaves zero takes the matrix job's value. This package's
// tests, benchmarks and examples build their networks from it unless they set
// the knob themselves; an example passes a nil tb.
func WithMatrix(tb testing.TB, o Options) Options {
	matrix.Apply(tb, &o.BatchSize, &o.VerifyWindow, nil, &o.DataDir, &o.Sync)
	return o
}

// matrixConfig is WithMatrix for the benchmarks that build a core deployment
// directly.
func matrixConfig(tb testing.TB, cfg core.Config) core.Config {
	matrix.Apply(tb, &cfg.BatchSize, &cfg.VerifyWindow, &cfg.Trace, &cfg.DataDir, &cfg.Sync)
	return cfg
}
