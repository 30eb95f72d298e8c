//go:build !race

// Retained-memory and allocation guards for the committed-transaction
// window. Excluded under the race detector, which shadows every allocation.

package consensus

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"sharper/internal/types"
)

// TestCommitWindowBytesPerEntry bounds what the window keeps per entry: a
// fixed-size record and its share of the index, and nothing the collector has
// to scan. It fills a window the way a replica does — a block's transactions
// noted, then settled — and reads the heap after a forced collection. A
// window that kept a map of entries and a FIFO of IDs beside it, or held a
// pointer per entry, shows up in one of the two bounds.
func TestCommitWindowBytesPerEntry(t *testing.T) {
	const n = 200_000
	const maxPerEntry = 40    // bytes retained
	const maxScanPerEntry = 1 // scannable bytes

	now := time.Now()
	blocks := make([][]*types.Transaction, 0, n/16)
	for seq := uint64(0); seq < n; seq += 16 {
		b := make([]*types.Transaction, 16)
		for j := range b {
			b[j] = windowTx(seq+uint64(j), now)
		}
		blocks = append(blocks, b)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	scanBefore := scannableHeap()
	w := NewCommitWindow()
	for _, b := range blocks {
		w.Note(b)
		for j, tx := range b {
			w.Put(tx.ID, j%5 != 0)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	scanAfter := scannableHeap()
	runtime.KeepAlive(blocks)
	runtime.KeepAlive(w)

	if w.Len() != n {
		t.Fatalf("window holds %d entries, want %d", w.Len(), n)
	}
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	scanPerEntry := float64(int64(scanAfter)-int64(scanBefore)) / n
	t.Logf("window retains %.1f B per entry, %.3f B of it scannable", perEntry, scanPerEntry)
	if perEntry > maxPerEntry {
		t.Fatalf("window retains %.1f B per entry, want ≤ %d", perEntry, maxPerEntry)
	}
	if scanPerEntry > maxScanPerEntry {
		t.Fatalf("window holds %.3f scannable B per entry, want ≤ %d", scanPerEntry, maxScanPerEntry)
	}
}

// TestCommitWindowAllocsPerOp: on a warm window — ring and index grown to the
// working set, one chunk spare — noting, settling, looking up and sweeping
// allocate nothing. The steady state runs a block in and the oldest block
// out, so the ring's head and tail move through chunks as in a replica.
func TestCommitWindowAllocsPerOp(t *testing.T) {
	w := NewCommitWindow()
	start := time.Now()
	seq := uint64(0)
	block := make([]*types.Transaction, 16)
	for j := range block {
		block[j] = windowTx(0, start)
	}
	next := func() {
		for _, tx := range block {
			seq++
			tx.ID.Seq = seq
		}
	}
	const live = 40_000
	for i := 0; i < 2*live/len(block); i++ {
		next()
		w.Note(block)
	}
	w.Sweep(time.Now().Add(time.Hour)) // warm: grown, emptied, chunks spare
	for i := 0; i < live/len(block); i++ {
		next()
		w.Note(block)
	}
	id := block[0].ID
	cases := []struct {
		name string
		op   func()
	}{
		{"Note", func() { next(); w.Note(block) }},
		{"Put", func() { w.Put(block[len(block)-1].ID, true) }},
		{"Get", func() { w.Get(id) }},
		{"Contains", func() { w.Contains(id) }},
		{"Sweep", func() { w.Sweep(time.Now().Add(-time.Hour)) }},
		{"Rejected", func() { w.Rejected(nil) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.op); allocs != 0 {
			t.Errorf("%s: %.1f allocations per op on a warm window, want 0", c.name, allocs)
		}
	}
}

// scannableHeap reads the heap bytes the collector would scan, as of the
// last collection.
func scannableHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic("runtime/metrics: /gc/scan/heap:bytes unsupported")
	}
	return s[0].Value.Uint64()
}
