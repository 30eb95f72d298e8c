package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestBeyondCountsTheTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{2000, 99, 20}, {550, 99, 5}, {100, 50, 50}, {0, 99, 0}, {10, 99, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4) gives,
// because that is what the accepting driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 1, 3, 2, 20}) // unsorted input
	if !near(q1, 1.5) || !near(q3, 15) {
		t.Errorf("quartiles = %v, %v; Python gives 1.5, 15", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if d := worstDeviation([]float64{90, 100, 130}); !near(d, 0.3) {
		t.Errorf("worstDeviation = %v, want 0.3", d)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v", m)
	}
}

func TestIntervalRates(t *testing.T) {
	s := []sample{
		{atSec: 0, committed: 0, cpuMs: 100},
		{atSec: 0.5, committed: 500, cpuMs: 150},
		{atSec: 1.0, committed: 500, cpuMs: 160}, // nothing committed: a rate of 0, no cost sample
		{atSec: 1.5, committed: 1500, cpuMs: 260},
	}
	tps, cpu := intervalRates(s)
	if len(tps) != 3 || tps[0] != 1000 || tps[1] != 0 || tps[2] != 2000 {
		t.Errorf("tps = %v, want [1000 0 2000]", tps)
	}
	if len(cpu) != 2 || !near(cpu[0], 0.1) || !near(cpu[1], 0.1) {
		t.Errorf("cpu per tx = %v, want [0.1 0.1]", cpu)
	}
}

// One stalled second must not decide the reported tail: the windowed median
// ignores it, while the whole-phase percentile does not.
func TestWindowPercentilesIsolateOneStall(t *testing.T) {
	var due, lat []float64
	for sec := 0; sec < 10; sec++ {
		for i := 0; i < 100; i++ {
			due = append(due, float64(sec)+float64(i)/100)
			l := 1.0 + float64(i)/100
			if sec == 4 {
				l += 500
			}
			lat = append(lat, l)
		}
	}
	w99 := windowPercentiles(due, lat, 10, 99)
	if len(w99) != 10 {
		t.Fatalf("got %d windows, want 10", len(w99))
	}
	if m := median(w99); m > 3 {
		t.Errorf("median of window p99s = %v, want the undisturbed ~2", m)
	}
	if w99[4] < 500 {
		t.Errorf("the stalled window's p99 = %v, want > 500", w99[4])
	}
	if all := percentile(sortedCopy(lat), 99); all < 500 {
		t.Errorf("whole-phase p99 = %v; the test expects it to be inside the stall", all)
	}
}
