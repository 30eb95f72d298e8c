// Package obs is the repo's dependency-free observability layer: a
// low-overhead metrics registry (atomic counters, gauges, fixed-bucket
// latency histograms with quantile extraction), per-transaction lifecycle
// tracing, and the structured event ring backing Config.Trace divergence
// dumps. Everything on the hot path is a single atomic op with zero
// allocations (locked in by TestHotPathAllocs); aggregation, quantiles, and
// text rendering only run at scrape/snapshot time.
//
// Ownership rules: each core.Node owns exactly one Registry; engines,
// storage, and the verify pool receive handles (or small handle structs) at
// construction and never create registries themselves. Shared fabrics (the
// in-process simulator) keep their own counters and are read pull-style at
// snapshot time, so a shared resource is never double-counted into per-node
// registries. Every handle type in this package is nil-receiver safe: a nil
// Registry hands out nil handles and instrumented code runs with only a
// branch of overhead when metrics are disabled.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric flavors in snapshots and on the wire.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// NumBuckets is the fixed bucket count every Histogram uses: bucket i counts
// values v with bits.Len64(v) == i, i.e. bucket 0 holds v=0 and bucket i>0
// holds [2^(i-1), 2^i). In microseconds that spans 1µs to ~35min before the
// overflow bucket, plenty for any latency this system produces.
const NumBuckets = 32

// Counter is a monotonically increasing value. The zero value is ready; a
// nil Counter ignores updates.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; 0 on a nil Counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins value. A nil Gauge ignores updates.
type Gauge struct{ v atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(n uint64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Load returns the current value; 0 on a nil Gauge.
func (g *Gauge) Load() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket power-of-two histogram. Observe is one atomic
// add per call; quantiles are extracted from the buckets at read time by
// interpolating within the containing bucket, so p50/p95/p99 are exact to
// within a factor-of-two bucket width. A nil Histogram ignores updates.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	i := bits.Len64(v)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// Observe records one value (the unit is the caller's convention — latency
// histograms in this repo use microseconds, occupancy histograms use counts).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations; 0 on a nil Histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram state into bucket/count/sum form.
func (h *Histogram) Snapshot() (count, sum uint64, buckets []uint64) {
	if h == nil {
		return 0, 0, nil
	}
	buckets = make([]uint64, NumBuckets)
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return h.count.Load(), h.sum.Load(), buckets
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the observed values,
// interpolated within the containing bucket.
func (h *Histogram) Quantile(q float64) uint64 {
	count, _, buckets := h.Snapshot()
	return QuantileFromBuckets(buckets, count, q)
}

// QuantileFromBuckets extracts a quantile from any bucket array laid out
// like Histogram's (shared by merged fleet snapshots and wire dumps).
func QuantileFromBuckets(buckets []uint64, count uint64, q float64) uint64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, b := range buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if next >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(b)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum = next
	}
	_, hi := bucketBounds(len(buckets) - 1)
	return hi
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// Metric is one registry entry in snapshot form.
type Metric struct {
	Name  string
	Kind  Kind
	Value uint64 // counter / gauge value

	// Histogram fields (Kind == KindHistogram).
	Count   uint64
	Sum     uint64
	Buckets []uint64
}

// Quantile extracts a quantile from a histogram snapshot; 0 for other kinds.
func (m *Metric) Quantile(q float64) uint64 {
	if m.Kind != KindHistogram {
		return 0
	}
	return QuantileFromBuckets(m.Buckets, m.Count, q)
}

// entry is one registered metric; exactly one of the handle fields is set.
type entry struct {
	kind Kind
	c    *Counter
	g    *Gauge
	gf   func() uint64
	h    *Histogram
}

// Registry is a named collection of metrics. Registration takes a lock;
// updates through the returned handles are lock-free atomics. A nil Registry
// hands out nil handles, so instrumented code never branches on "metrics
// enabled" beyond the nil checks built into the handles.
type Registry struct {
	mu      sync.Mutex
	order   []string
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// get returns the existing entry for name or installs the one built by mk.
func (r *Registry) get(name string, kind Kind, mk func() *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return e
	}
	e := mk()
	r.entries[name] = e
	r.order = append(r.order, name)
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, KindCounter, func() *entry { return &entry{kind: KindCounter, c: &Counter{}} }).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, KindGauge, func() *entry { return &entry{kind: KindGauge, g: &Gauge{}} }).g
}

// GaugeFunc registers a pull-style gauge evaluated only at snapshot time.
// The callback must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.get(name, KindGauge, func() *entry { return &entry{kind: KindGauge, gf: fn} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, KindHistogram, func() *entry { return &entry{kind: KindHistogram, h: &Histogram{}} }).h
}

// Snapshot captures every metric in registration order. GaugeFunc callbacks
// are evaluated here, never on the hot path.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	entries := make([]*entry, len(names))
	for i, n := range names {
		entries[i] = r.entries[n]
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(names))
	for i, e := range entries {
		m := Metric{Name: names[i], Kind: e.kind}
		switch {
		case e.c != nil:
			m.Value = e.c.Load()
		case e.gf != nil:
			m.Value = e.gf()
		case e.g != nil:
			m.Value = e.g.Load()
		case e.h != nil:
			m.Count, m.Sum, m.Buckets = e.h.Snapshot()
		}
		out = append(out, m)
	}
	return out
}

// Merge sums snapshots by metric name: counters and gauges add values,
// histograms add bucket-wise. The result is sorted by name. Used for the
// fleet-wide roll-up (driver audit, in-process deployments).
func Merge(snaps ...[]Metric) []Metric {
	byName := make(map[string]*Metric)
	var order []string
	for _, snap := range snaps {
		for i := range snap {
			m := &snap[i]
			agg, ok := byName[m.Name]
			if !ok {
				cp := *m
				cp.Buckets = append([]uint64(nil), m.Buckets...)
				byName[m.Name] = &cp
				order = append(order, m.Name)
				continue
			}
			if agg.Kind != m.Kind {
				continue // name collision across kinds: keep the first
			}
			agg.Value += m.Value
			agg.Count += m.Count
			agg.Sum += m.Sum
			for i := 0; i < len(agg.Buckets) && i < len(m.Buckets); i++ {
				agg.Buckets[i] += m.Buckets[i]
			}
		}
	}
	sort.Strings(order)
	out := make([]Metric, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// promName maps a registry name to a Prometheus-legal metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("sharper_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	WriteMetricsPrometheus(w, r.Snapshot())
}

// WriteMetricsPrometheus renders any snapshot (per-node or merged) in
// Prometheus text exposition format.
func WriteMetricsPrometheus(w io.Writer, snap []Metric) {
	for i := range snap {
		m := &snap[i]
		name := promName(m.Name)
		switch m.Kind {
		case KindCounter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, m.Value)
		case KindGauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, m.Value)
		case KindHistogram:
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			var cum uint64
			for i, b := range m.Buckets {
				cum += b
				_, hi := bucketBounds(i)
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, hi, cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, m.Count)
			fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, m.Sum, name, m.Count)
		}
	}
}
