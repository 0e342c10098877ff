package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if sd := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(sd-2.138) > 0.01 {
		t.Errorf("stddev = %v", sd)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("single stddev")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 || f.R2 < 0.999999 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 5+0.25*x+rng.NormFloat64()*0.5)
	}
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-0.25) > 0.01 || f.R2 < 0.95 {
		t.Fatalf("noisy fit = %+v", f)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestKDEUnimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = 3 + rng.NormFloat64()*0.5
	}
	k, err := NewKDE(sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.bandwidth <= 0 {
		t.Error("bandwidth not positive")
	}
	// Density peaks near 3.
	if k.Density(3) < k.Density(1) || k.Density(3) < k.Density(5) {
		t.Error("density does not peak at the mean")
	}
	modes := k.Modes(0, 6, 200)
	if len(modes) != 1 || math.Abs(modes[0]-3) > 0.3 {
		t.Errorf("modes = %v", modes)
	}
	// PDF integrates to ~1 over a wide range.
	xs, ys := k.Curve(0, 6, 600)
	var integral float64
	for i := 1; i < len(xs); i++ {
		integral += (ys[i] + ys[i-1]) / 2 * (xs[i] - xs[i-1])
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("PDF integral = %v", integral)
	}
}

func TestKDEBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sample []float64
	for i := 0; i < 1500; i++ {
		if i%2 == 0 {
			sample = append(sample, 1+rng.NormFloat64()*0.2)
		} else {
			sample = append(sample, 3+rng.NormFloat64()*0.2)
		}
	}
	k, _ := NewKDE(sample, 0.15)
	modes := k.Modes(0, 4, 300)
	if len(modes) != 2 {
		t.Fatalf("bimodal sample has %d modes: %v", len(modes), modes)
	}
}

func TestKDEErrors(t *testing.T) {
	if _, err := NewKDE(nil, 0); err == nil {
		t.Error("empty KDE accepted")
	}
	k, err := NewKDE([]float64{5, 5, 5}, 0)
	if err != nil || k.bandwidth <= 0 {
		t.Errorf("constant sample: %v, bw %v", err, k.bandwidth)
	}
}

// Property: the fitted line passes through the centroid.
func TestFitCentroidQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		fit, err := FitLinear(xs, ys)
		if err != nil {
			return true
		}
		return math.Abs((fit.Intercept+fit.Slope*Mean(xs))-Mean(ys)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
