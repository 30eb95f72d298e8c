// Package matrix is the test support behind CI's configuration matrix. The
// suite runs once per job with one of four environment variables set:
//
//	SHARPER_BATCH=16          blocks of up to 16 transactions
//	SHARPER_VERIFY_WINDOW=16  signature batch verification 16 wide
//	SHARPER_PERSIST=1         durable storage (or none, group, always)
//	SHARPER_TRACE=1           protocol trace rings on
//
// No production code reads them. They are parsed here, once, and each test
// package that builds deployments applies them to its configurations through
// Apply, so a matrix job runs the same tests with the knob changed. Like
// internal/ordertest, the package imports neither core nor the facade.
package matrix

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"sharper/internal/storage"
)

var (
	// Batch is SHARPER_BATCH (0 when unset).
	Batch = positive("SHARPER_BATCH")
	// VerifyWindow is SHARPER_VERIFY_WINDOW (0 when unset).
	VerifyWindow = positive("SHARPER_VERIFY_WINDOW")
	// Trace is whether SHARPER_TRACE is set.
	Trace = os.Getenv("SHARPER_TRACE") != ""
	// Persist is whether SHARPER_PERSIST turns durable storage on, and Sync
	// the fsync policy its value names ("1" means group).
	Persist, Sync, persistErr = persistence()
)

func positive(name string) int {
	n, err := strconv.Atoi(os.Getenv(name))
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

func persistence() (bool, storage.SyncPolicy, error) {
	v := os.Getenv("SHARPER_PERSIST")
	if v == "" || v == "0" {
		return false, storage.SyncGroup, nil
	}
	p, err := storage.ParseSyncPolicy(v)
	if err != nil {
		return false, p, fmt.Errorf("matrix: SHARPER_PERSIST: %w", err)
	}
	return true, p, nil
}

// Apply gives each knob a test left at its zero value the matrix job's
// value: the batch size, the verify window, tracing (trace may be nil where
// the configuration has no such field), and under persistence a fresh data
// directory with the job's sync policy (dataDir may be nil to leave storage
// alone). The directory comes from tb, or, for an example function, which
// has none, from under a root that Cleanup removes. A SHARPER_PERSIST value
// that names no policy fails the test: a typo must not silently test a
// different durability policy.
func Apply(tb testing.TB, batch, window *int, trace *bool, dataDir *string, policy *storage.SyncPolicy) {
	if persistErr != nil {
		fail(tb, persistErr)
	}
	if *batch == 0 {
		*batch = Batch
	}
	if *window == 0 {
		*window = VerifyWindow
	}
	if trace != nil && Trace {
		*trace = true
	}
	if !Persist || dataDir == nil || *dataDir != "" {
		return
	}
	*policy = Sync
	if tb != nil {
		*dataDir = tb.TempDir()
		return
	}
	dir, err := exampleDir()
	if err != nil {
		fail(tb, err)
	}
	*dataDir = dir
}

func fail(tb testing.TB, err error) {
	if tb == nil {
		panic(err)
	}
	tb.Fatal(err)
}

var (
	rootMu sync.Mutex
	root   string
)

// exampleDir makes a fresh data directory under the package's example root.
func exampleDir() (string, error) {
	rootMu.Lock()
	defer rootMu.Unlock()
	if root == "" {
		r, err := os.MkdirTemp("", "sharper-matrix-")
		if err != nil {
			return "", fmt.Errorf("matrix: %w", err)
		}
		root = r
	}
	return os.MkdirTemp(root, "data-")
}

// Cleanup removes the data directories Apply made without a testing.TB. A
// package whose examples build deployments calls it from TestMain, after
// m.Run.
func Cleanup() {
	rootMu.Lock()
	defer rootMu.Unlock()
	if root != "" {
		os.RemoveAll(root)
		root = ""
	}
}
