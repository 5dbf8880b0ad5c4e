package main

import (
	"math"
	"sort"
	"time"

	"shiftedmirror/internal/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values. It marshals with sorted keys
// (encoding/json sorts map keys), so two runs print in the same order.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit}
}

// beyond reports how many of n ascending samples lie strictly beyond
// the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 from fewer than ten tail samples is mostly one or two outliers.
const minBeyond = 10

// latencySummary reports a latency series as its nearest-rank median
// and p99 in microseconds, plus the sample count. The p99 is omitted
// (ok99 false) unless at least minBeyond samples lie beyond it.
type latencySummary struct {
	N        int
	P50, P99 float64
	ok99     bool
}

// summarize reports d by its nearest-rank median and p99.
func summarize(d []time.Duration) latencySummary {
	if len(d) == 0 {
		return latencySummary{}
	}
	s := obs.SortDurations(append([]time.Duration(nil), d...))
	return latencySummary{
		N:    len(s),
		P50:  us(obs.NearestRankDur(s, 0.50)),
		P99:  us(obs.NearestRankDur(s, 0.99)),
		ok99: beyond(len(s), 0.99) >= minBeyond,
	}
}

// report adds name_p50_us and, where the tail supports it,
// name_p99_us to m.
func (l latencySummary) report(m metricSet, name string) {
	if l.N == 0 {
		return
	}
	m.set(name+"_p50_us", l.P50, "us")
	if l.ok99 {
		m.set(name+"_p99_us", l.P99, "us")
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return obs.NearestRank(s, 0.5)
}

// histDelta is the histogram of observations made between two
// snapshots of the same histogram.
func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{
		Bounds: after.Bounds,
		Counts: make([]uint64, len(after.Counts)),
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
	}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// histAdd merges two snapshots of histograms with the same bounds.
func histAdd(a, b obs.HistSnapshot) obs.HistSnapshot {
	if a.Counts == nil {
		return b
	}
	s := obs.HistSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts)), Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	for i := range s.Counts {
		s.Counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			s.Counts[i] += b.Counts[i]
		}
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
