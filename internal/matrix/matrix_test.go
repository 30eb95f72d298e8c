package matrix

import (
	"os"
	"testing"

	"sharper/internal/storage"
)

// TestApplyWithoutTB: under persistence, a configuration built without a
// testing.TB (an example's) still gets a data directory, and Cleanup removes
// it.
func TestApplyWithoutTB(t *testing.T) {
	if persistErr != nil {
		t.Skip(persistErr)
	}
	defer func(p bool, s storage.SyncPolicy) { Persist, Sync = p, s }(Persist, Sync)
	Persist, Sync = true, storage.SyncAlways
	var batch, window int
	var dir string
	var policy storage.SyncPolicy
	Apply(nil, &batch, &window, nil, &dir, &policy)
	if dir == "" || policy != storage.SyncAlways {
		t.Fatalf("data dir %q, policy %v", dir, policy)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
	Cleanup()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("%s survived Cleanup: %v", dir, err)
	}

	// A configuration that has no storage, or names its own, is left alone.
	Apply(nil, &batch, &window, nil, nil, nil)
	own := "own"
	Apply(nil, &batch, &window, nil, &own, &policy)
	if own != "own" {
		t.Fatalf("data dir replaced: %q", own)
	}
}
