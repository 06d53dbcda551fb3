package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median is the 0.5-quantile of an unsorted slice (the input is not
// modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidate percentiles for tail_ms, highest first:
// a decade apart, so the one chosen stays put while the sample count of a
// fixed-length run moves with the machine's speed (on the reference host,
// by up to 2x between phases).
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailStat picks the highest candidate percentile that leaves at least ten
// samples beyond it and returns the percentile, its value and the sample
// count. With fewer than ten samples beyond every candidate it falls back
// to the median.
func tailStat(sorted []float64) (pct, value float64, n int) {
	n = len(sorted)
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p, quantile(sorted, p/100), n
		}
	}
	return 50, quantile(sorted, 0.5), n
}

// beyond is how many of n samples lie above percentile p.
func beyond(n int, p float64) int { return int(math.Round(float64(n)*(100-p)*1e6) / 1e8) }

// durationsMS converts latencies to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ratio is a/b, or 0 when b is 0 (a layer that did no work at all).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fmtPct renders a percentile label such as "p99.5".
func fmtPct(p float64) string { return fmt.Sprintf("p%g", p) }
