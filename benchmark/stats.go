package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// ceil(p/100*n)-th smallest value. With fewer than 1/(1-p/100) samples it
// is the maximum, which is why op_p95_ms reads "slowest timed operation" on
// the workloads that fit only a handful of operations into a run.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// samplesBeyond is the number of samples strictly above the nearest-rank
// p-th percentile position — the guide's "at least ten samples beyond it"
// count that says how much a tail percentile can be trusted.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles computed the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method) so the number
// matches the acceptance procedure's. Needs at least two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - 4*j // outside [0, 4) where j was clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// worsening returns by what share of base the value got worse (positive)
// or better (negative), given the metric's direction.
func worsening(base, value float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (value - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// measurement is one reported number: the value (a median when N > 1) and
// the samples behind it. Spread is the in-run noise estimate as a share of
// the value: for repeats of one operation how far the samples lie apart,
// for a latency distribution (service jobs) the disagreement of its two
// halves; 0 for single samples.
type measurement struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Kind   string  `json:"kind"`
	N      int     `json:"n,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// summarize folds repeated samples of one quantity into a measurement
// whose value is their median and whose spread is their quartile distance
// (their range when there are too few for quartiles to mean anything).
func summarize(xs []float64, unit, kind string) measurement {
	if len(xs) == 0 {
		return measurement{Unit: unit, Kind: kind}
	}
	s := sorted(xs)
	m := measurement{Value: median(s), Unit: unit, Kind: kind, N: len(s), Min: s[0], Max: s[len(s)-1]}
	switch {
	case m.Value == 0:
	case m.N >= 4:
		m.Spread = quartileSpread(s)
	case m.N > 1:
		m.Spread = (m.Max - m.Min) / math.Abs(m.Value)
	}
	return m
}

// halvesSpread estimates the noise of a statistic of a long sample
// sequence: the distance between the statistic of the even- and the
// odd-numbered samples, as a share of the statistic of all of them.
func halvesSpread(xs []float64, stat func([]float64) float64) float64 {
	var even, odd []float64
	for i, x := range xs {
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	all := stat(xs)
	if len(odd) == 0 || all == 0 {
		return 0
	}
	return math.Abs(stat(even)-stat(odd)) / math.Abs(all)
}
