package obs

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"sharper/internal/types"
)

// TestHistogramBucketBoundaries pins the power-of-two bucket layout: bucket
// 0 holds v=0, bucket i>0 holds [2^(i-1), 2^i), overflow saturates.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 30, 31}, {(1 << 31) - 1, 31}, {1 << 31, 31}, {1 << 60, 31},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	h := &Histogram{}
	h.Observe(0)
	h.Observe(5)
	h.Observe(1 << 40)
	count, sum, buckets := h.Snapshot()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if want := uint64(0 + 5 + 1<<40); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if buckets[0] != 1 || buckets[3] != 1 || buckets[NumBuckets-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", buckets)
	}
}

// TestHistogramQuantileVsSort draws random values, extracts p50/p95/p99 from
// the histogram, and checks each lands within one bucket of the true sorted
// quantile — the precision the power-of-two layout promises.
func TestHistogramQuantileVsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	vals := make([]uint64, 10000)
	for i := range vals {
		// mixture: mostly small latencies with a heavy tail
		v := uint64(rng.Intn(2000))
		if rng.Intn(20) == 0 {
			v = uint64(20000 + rng.Intn(500000))
		}
		vals[i] = v
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		idx := int(q*float64(len(vals))) - 1
		if idx < 0 {
			idx = 0
		}
		ref := vals[idx]
		got := h.Quantile(q)
		lo, hi := bucketOf(ref), bucketOf(got)
		diff := hi - lo
		if diff < 0 {
			diff = -diff
		}
		if diff > 1 {
			t.Errorf("q%.2f: got %d (bucket %d), reference %d (bucket %d)", q, got, hi, ref, lo)
		}
	}
	if h.Quantile(0) > vals[0]*2+1 {
		t.Errorf("q0 = %d beyond first value %d's bucket", h.Quantile(0), vals[0])
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	var nilH *Histogram
	nilH.Observe(5) // must not panic
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
}

// TestHotPathAllocs locks in the zero-allocation hot path for every handle
// update and for disabled tracing.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	ring := NewEventRing(8, false)
	tr := NewTxTracer(nil, 2, 8)
	id := types.TxID{Client: 1, Seq: 2} // (2+1)%2 != 0 → unsampled
	now := time.Now()

	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(7)
		h.Observe(123)
		ring.Record("x", 1, types.ZeroHash, "")
		tr.Start(id, false, now)
		tr.Stamp(id, StageSeal, now)
	}); n != 0 {
		t.Fatalf("hot path allocates: %.1f allocs/op", n)
	}

	var nilReg *Registry
	nc := nilReg.Counter("c")
	nh := nilReg.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		nc.Add(1)
		nh.Observe(1)
	}); n != 0 {
		t.Fatalf("nil-registry path allocates: %.1f allocs/op", n)
	}
}

func TestRegistrySnapshotAndMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("sent").Add(3)
	r2.Counter("sent").Add(4)
	r1.Gauge("depth").Set(5)
	r1.GaugeFunc("pull", func() uint64 { return 11 })
	r1.Histogram("lat").Observe(100)
	r2.Histogram("lat").Observe(200)

	m := Merge(r1.Snapshot(), r2.Snapshot())
	byName := map[string]Metric{}
	for _, x := range m {
		byName[x.Name] = x
	}
	if byName["sent"].Value != 7 {
		t.Errorf("merged counter = %d, want 7", byName["sent"].Value)
	}
	if byName["pull"].Value != 11 {
		t.Errorf("gauge func = %d, want 11", byName["pull"].Value)
	}
	lat := byName["lat"]
	if lat.Count != 2 || lat.Sum != 300 {
		t.Errorf("merged histogram count=%d sum=%d, want 2/300", lat.Count, lat.Sum)
	}

	var sb strings.Builder
	WriteMetricsPrometheus(&sb, m)
	out := sb.String()
	for _, want := range []string{"sharper_sent 7", "# TYPE sharper_lat histogram", "sharper_lat_count 2", `le="+Inf"`} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestEventRingWraps proves the ring overwrites oldest-first in O(1) and
// renders lines with kind/seq/digest.
func TestEventRingWraps(t *testing.T) {
	r := NewEventRing(4, true)
	var d types.Hash
	d[0] = 0xab
	for i := uint64(0); i < 10; i++ {
		r.Recordf("ev", i, d, "i=%d", i)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (oldest-first order broken)", i, e.Seq, want)
		}
	}
	lines := r.Lines()
	if len(lines) != 4 || !strings.Contains(lines[0], "ev seq=6 d=ab") {
		t.Fatalf("lines wrong: %v", lines)
	}

	off := NewEventRing(4, false)
	off.Record("x", 1, types.ZeroHash, "dropped")
	if got := off.Lines(); got != nil {
		t.Fatalf("disabled ring recorded: %v", got)
	}
	var nilRing *EventRing
	nilRing.Record("x", 1, types.ZeroHash, "") // must not panic
}

// TestEventRingDisabledHoldsNothing: a ring built with tracing off holds no
// buffer, and recording into it or reading it back does nothing — including
// the modulo over the buffer length an empty buffer would divide by zero in.
func TestEventRingDisabledHoldsNothing(t *testing.T) {
	for _, capacity := range []int{0, 4, DefaultRingCapacity} {
		r := NewEventRing(capacity, false)
		if r.buf != nil || r.Enabled() {
			t.Fatalf("disabled ring of capacity %d holds a %d-slot buffer", capacity, len(r.buf))
		}
		r.Record("x", 1, types.ZeroHash, "dropped")
		r.Recordf("x", 2, types.ZeroHash, "n=%d", 2)
		if evs := r.Events(); evs != nil {
			t.Fatalf("disabled ring returned events %v", evs)
		}
		if lines := r.Lines(); lines != nil {
			t.Fatalf("disabled ring returned lines %v", lines)
		}
		if r.total != 0 || r.next != 0 {
			t.Fatalf("disabled ring counted records: total %d next %d", r.total, r.next)
		}
	}
}

func TestTxTracerLifecycle(t *testing.T) {
	reg := NewRegistry()
	tr := NewTxTracer(reg, 1, 4)
	base := time.Unix(1000, 0)
	id := types.TxID{Client: 3, Seq: 9}
	var digest types.Hash
	digest[0] = 1

	tr.Start(id, true, base)
	tr.Stamp(id, StageSeal, base.Add(1*time.Millisecond))
	tr.BindDigest(digest, []*types.Transaction{{ID: id}})
	tr.StampDigest(digest, StagePropose, base.Add(2*time.Millisecond))
	tr.StampDigest(digest, StageLockGrant, base.Add(3*time.Millisecond))
	tr.StampDigest(digest, StagePrepared, base.Add(4*time.Millisecond))
	tr.Stamp(id, StageCommitted, base.Add(5*time.Millisecond))
	tr.Stamp(id, StageExecuted, base.Add(5*time.Millisecond))
	tr.Stamp(id, StagePersisted, base.Add(5*time.Millisecond))
	// first-stamp-wins: a late duplicate must not move the clock back
	tr.StampDigest(digest, StagePropose, base.Add(9*time.Millisecond))
	tr.Finish(id, base.Add(6*time.Millisecond))

	done := tr.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d traces, want 1", len(done))
	}
	got := done[0]
	if !got.Cross || got.ID != id {
		t.Fatalf("trace identity wrong: %+v", got)
	}
	prev := int64(0)
	for s := Stage(0); s < NumStages; s++ {
		if got.At[s] == 0 {
			t.Fatalf("stage %s missing", s)
		}
		if got.At[s] < prev {
			t.Fatalf("stage %s went backwards", s)
		}
		prev = got.At[s]
	}
	if got.At[StagePropose] != base.Add(2*time.Millisecond).UnixNano() {
		t.Fatal("duplicate stamp overwrote the first")
	}

	// histograms got the deltas (µs units)
	snap := reg.Snapshot()
	var total Metric
	for _, m := range snap {
		if m.Name == "stage_cross_total_us" {
			total = m
		}
	}
	if total.Count != 1 || total.Sum != 6000 {
		t.Fatalf("cross total histogram count=%d sum=%d, want 1/6000", total.Count, total.Sum)
	}

	// unsampled IDs must not trace
	tr2 := NewTxTracer(nil, 1000, 4)
	tr2.Start(types.TxID{Client: 1, Seq: 2}, false, base)
	tr2.Finish(types.TxID{Client: 1, Seq: 2}, base)
	if len(tr2.Completed()) != 0 {
		t.Fatal("unsampled tx was traced")
	}
}
