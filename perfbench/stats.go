package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples a nearest-rank p-th percentile leaves above
// it among n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the highest of the candidate percentiles that
// still has at least minBeyond samples above it among n, so a reported
// tail is never set by a handful of requests. ok is false when even the
// lowest candidate is too thin.
func tailPercentile(n, minBeyond int, candidates ...float64) (p float64, ok bool) {
	best := -1.0
	for _, c := range candidates {
		if beyond(n, c) >= minBeyond && c > best {
			best = c
		}
	}
	return best, best > 0
}

// quartiles returns the first quartile, median and third quartile of
// vals with the same interpolation as Python's
// statistics.quantiles(vals, n=4) (the default "exclusive" method), so
// the spreads in run records match the ones the acceptance check
// computes. A single value is its own quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// summary is the run-record form of one metric: every raw value the run
// measured for it plus their median and quartiles.
type summary struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

func summarize(vals []float64) summary {
	q1, m, q3 := quartiles(vals)
	return summary{Values: vals, Q1: q1, Median: m, Q3: q3}
}
