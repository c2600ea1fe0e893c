package main

import (
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a timing may be reported at, lowest
// first. tailPercentile picks the highest one that leaves at least
// minBeyond samples above it.
var tailLevels = []float64{50, 90, 99, 99.9}

const minBeyond = 10

// tailPercentile returns the highest percentile of tailLevels with at
// least ten of n samples beyond it: p90 for 100 samples, p99 for 1200.
// With fewer than 20 samples it returns the median.
func tailPercentile(n int) float64 {
	best := tailLevels[0]
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of sorted values by linear
// interpolation between the closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns the values in ascending order without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) computes them (the default "exclusive"
// method), so spreads agree with tools that use it. A single value is its
// own quartiles.
func quartiles(v []float64) [3]float64 {
	d := sortedCopy(v)
	ld := len(d)
	var q [3]float64
	switch ld {
	case 0:
		return q
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
