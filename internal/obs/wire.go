package obs

import "sharper/internal/types"

// This file converts between registry snapshots and the wire-level
// types.MetricVal encoding, so a node can answer a QueryMetrics and the
// driver can re-assemble fleet snapshots for Merge. Histograms flatten to
// [count, sum, bucket0..bucketN-1]; counters and gauges to a single value.

// MetricsToWire flattens a snapshot into wire form.
func MetricsToWire(snap []Metric) []types.MetricVal {
	out := make([]types.MetricVal, 0, len(snap))
	for i := range snap {
		m := &snap[i]
		mv := types.MetricVal{Name: m.Name, Kind: uint8(m.Kind)}
		if m.Kind == KindHistogram {
			mv.Values = make([]uint64, 0, 2+len(m.Buckets))
			mv.Values = append(mv.Values, m.Count, m.Sum)
			mv.Values = append(mv.Values, m.Buckets...)
		} else {
			mv.Values = []uint64{m.Value}
		}
		out = append(out, mv)
	}
	return out
}

// MetricsFromWire rebuilds a snapshot from wire form, tolerating truncated
// or oversized value arrays from untrusted peers (extra buckets are dropped,
// missing ones read as zero).
func MetricsFromWire(vals []types.MetricVal) []Metric {
	out := make([]Metric, 0, len(vals))
	for i := range vals {
		mv := &vals[i]
		m := Metric{Name: mv.Name, Kind: Kind(mv.Kind)}
		if m.Kind == KindHistogram {
			if len(mv.Values) >= 2 {
				m.Count, m.Sum = mv.Values[0], mv.Values[1]
				n := len(mv.Values) - 2
				if n > NumBuckets {
					n = NumBuckets
				}
				m.Buckets = append([]uint64(nil), mv.Values[2:2+n]...)
			}
		} else if len(mv.Values) > 0 {
			m.Value = mv.Values[0]
		}
		out = append(out, m)
	}
	return out
}
