// Package stats provides the statistical machinery of the evaluation:
// means and standard deviations, least-squares linear regression for
// the CPU-load scaling model of Figure 7 and Equation 1 and the cooling
// efficiency fit of Figure 9, and Gaussian kernel density estimation
// and histograms for the instructions-per-Watt probability density
// functions of Figure 10.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// StdDev returns the sample standard deviation.
func StdDev(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := Mean(vals)
	var ss float64
	for _, v := range vals {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(len(vals)-1))
}

// LinearFit is a least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
}

// FitLinear fits a least-squares line through (x, y) pairs.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: x/y length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate x values")
	}
	f := LinearFit{}
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	// R².
	my := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := f.Intercept + f.Slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f, nil
}

// KDE is a Gaussian kernel density estimator over a sample.
type KDE struct {
	sample    []float64
	bandwidth float64
}

// NewKDE builds an estimator. bandwidth <= 0 selects Silverman's rule
// of thumb.
func NewKDE(sample []float64, bandwidth float64) (*KDE, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("stats: KDE of empty sample")
	}
	if bandwidth <= 0 {
		sd := StdDev(sample)
		if sd == 0 {
			sd = 1e-9
		}
		bandwidth = 1.06 * sd * math.Pow(float64(len(sample)), -0.2)
	}
	return &KDE{sample: append([]float64(nil), sample...), bandwidth: bandwidth}, nil
}

// Density evaluates the estimated PDF at x.
func (k *KDE) Density(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	var sum float64
	for _, s := range k.sample {
		u := (x - s) / k.bandwidth
		sum += invSqrt2Pi * math.Exp(-0.5*u*u)
	}
	return sum / (float64(len(k.sample)) * k.bandwidth)
}

// Curve samples the PDF at n evenly spaced points over [lo, hi].
func (k *KDE) Curve(lo, hi float64, n int) ([]float64, []float64) {
	if n < 2 {
		n = 2
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		ys[i] = k.Density(xs[i])
	}
	return xs, ys
}

// Modes finds local maxima of the estimated PDF sampled at n points,
// used to check the multi-modality of application distributions.
func (k *KDE) Modes(lo, hi float64, n int) []float64 {
	xs, ys := k.Curve(lo, hi, n)
	var modes []float64
	for i := 1; i < len(ys)-1; i++ {
		if ys[i] > ys[i-1] && ys[i] >= ys[i+1] {
			modes = append(modes, xs[i])
		}
	}
	return modes
}
