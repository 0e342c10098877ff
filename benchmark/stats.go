package main

import (
	"math"
	"sort"
	"time"
)

// latencies are per-operation durations of one kind.
type latencies []time.Duration

func (l latencies) sorted() []time.Duration {
	out := append([]time.Duration(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (l latencies) median() time.Duration { return quantileSorted(l.sorted(), 0.5) }

// quantileSorted returns the q-quantile (0..1) of an ascending sample
// by linear interpolation between closest ranks; 0 for an empty one.
func quantileSorted[T ~int64 | ~float64](s []T, q float64) T {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + T((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", from the most to the least demanding.
var tailPercentiles = [...]float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75}

// tailQuantile picks the highest candidate percentile that still has
// at least ten samples beyond it — a p99 of 200 samples is the second
// worst value and repeats badly; a p99 of 5 000 has fifty behind it —
// and returns that percentile with its value. Samples too small for
// any candidate fall back to the median.
func tailQuantile(s []time.Duration) (p float64, v time.Duration) {
	for _, c := range tailPercentiles {
		if float64(len(s))*(1-c) >= 10-1e-6 { // 100*(1-0.9) is 9.999999999999998
			return c, quantileSorted(s, c)
		}
	}
	return 0.5, quantileSorted(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance driver uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based; the pair is clamped to the
		// sample but the weight is not, so tiny samples extrapolate
		// exactly as Python does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
