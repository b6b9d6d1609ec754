package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted; NaN when there are no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailSamples is how many samples must lie beyond a percentile before it
// is reported (the choosing-metrics rule).
const tailSamples = 10

// reportable lists the percentiles the harness knows, ascending.
var reportable = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest reportable percentile that still
// has at least tailSamples samples beyond it, or 0 when even the median
// has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if float64(n)*(100-p)/100 >= tailSamples-1e-9 { // 100-99.9 is a hair under 0.1
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quantile interpolates like Python's statistics.quantiles (exclusive
// method), the rule the repeatability study and -compare are judged by.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// spread is one metric over repeated runs: median, quartiles and the raw
// values, so -compare can tell a real change from run-to-run noise.
type spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newSpread(unit string, values []float64) spread {
	s := sortedCopy(values)
	return spread{Unit: unit, Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Values: values}
}

// iqrShare is the interquartile distance as a share of the median.
func (s spread) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
