package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of an ascending
// slice by the nearest-rank rule: the smallest sample with at least p % of
// the samples at or below it. No interpolation, so the value reported is a
// latency some request really had. Zero for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the p-th percentile's rank: how
// many observations the reported tail value has behind it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of v (mean of the two middle values for an
// even count), 0 when empty.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so spreads
// printed by -repeat match the ones the accepting driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// Position k·(n+1)/4, 1-based, linearly interpolated and clamped.
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range of v as a share of its median — the
// steadiness number every bound in BENCHMARK.json is set against.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// worstDeviation is the largest |x − median| / median over v.
func worstDeviation(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	worst := 0.0
	for _, x := range v {
		if d := math.Abs(x-m) / math.Abs(m); d > worst {
			worst = d
		}
	}
	return worst
}

// sample is one reading of the cumulative counters the rate metrics are
// derived from, taken by the sampler at a fixed cadence.
type sample struct {
	atSec     float64 // seconds since the phase started
	committed int64   // verdicts committed so far in the phase
	cpuMs     float64 // process user+sys CPU so far, ms
}

// intervalRates turns consecutive samples into per-interval goodput (tx/s)
// and CPU cost (ms per committed tx). Intervals in which nothing committed
// contribute a zero rate and no cost sample.
func intervalRates(s []sample) (tps, cpuPerTx []float64) {
	for i := 1; i < len(s); i++ {
		dt := s[i].atSec - s[i-1].atSec
		dn := s[i].committed - s[i-1].committed
		if dt <= 0 {
			continue
		}
		tps = append(tps, float64(dn)/dt)
		if dn > 0 {
			cpuPerTx = append(cpuPerTx, (s[i].cpuMs-s[i-1].cpuMs)/float64(dn))
		}
	}
	return tps, cpuPerTx
}

// windowPercentiles groups latencies by the whole second of the phase their
// request was due in and returns the p-th percentile of each window. Reporting
// a quartile or median of these, rather than one percentile over the whole
// phase, keeps a single stall of the host from deciding the tail.
func windowPercentiles(dueSec, lat []float64, lengthSec, p float64) []float64 {
	n := int(lengthSec)
	if n < 1 {
		n = 1
	}
	width := lengthSec / float64(n)
	windows := make([][]float64, n)
	for i, at := range dueSec {
		k := int(at / width)
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		windows[k] = append(windows[k], lat[i])
	}
	var out []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		out = append(out, percentile(w, p))
	}
	return out
}
