package stats

import (
	"math"
	"testing"

	"toto/internal/rng"
)

func TestFitNormalRecovers(t *testing.T) {
	xs := normalSample(1, 5000, 12, 3)
	p, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean-12) > 0.15 || math.Abs(p.Sigma-3) > 0.15 {
		t.Errorf("fit = %+v, want ~N(12, 3)", p)
	}
	if c := p.CDF(12); !almost(c, 0.5, 0.02) {
		t.Errorf("CDF(mean) = %v", c)
	}
}

func TestFitNormalDegenerate(t *testing.T) {
	p, err := FitNormal([]float64{4, 4, 4})
	if err != nil || p.Sigma != 0 {
		t.Fatalf("constant fit = %+v, %v", p, err)
	}
	if p.CDF(3.9) != 0 || p.CDF(4) != 1 {
		t.Error("degenerate CDF is not a step at the mean")
	}
	if _, err := FitNormal(nil); err == nil {
		t.Error("empty sample not rejected")
	}
}

func TestFitUniformRecovers(t *testing.T) {
	src := rng.New(2)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = src.UniformRange(3, 9)
	}
	p, err := FitUniform(xs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Lo < 3 || p.Lo > 3.05 || p.Hi > 9 || p.Hi < 8.95 {
		t.Errorf("uniform fit = %+v", p)
	}
	if c := p.CDF((p.Lo + p.Hi) / 2); !almost(c, 0.5, 1e-9) {
		t.Errorf("uniform CDF midpoint = %v", c)
	}
	if p.CDF(p.Lo-1) != 0 || p.CDF(p.Hi+1) != 1 {
		t.Error("uniform CDF tails wrong")
	}
}

func TestFitPoissonRecovers(t *testing.T) {
	src := rng.New(3)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(src.Poisson(6))
	}
	p, err := FitPoisson(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Lambda-6) > 0.15 {
		t.Errorf("lambda = %v", p.Lambda)
	}
	if c := p.CDF(-1); c != 0 {
		t.Errorf("CDF(-1) = %v", c)
	}
	if c := p.CDF(100); !almost(c, 1, 1e-9) {
		t.Errorf("CDF(100) = %v", c)
	}
	// CDF(median-ish) near 0.5.
	if c := p.CDF(6); c < 0.4 || c > 0.75 {
		t.Errorf("CDF(6) = %v", c)
	}
}

func TestFitPoissonRejectsNegative(t *testing.T) {
	if _, err := FitPoisson([]float64{1, -2}); err == nil {
		t.Error("negative data not rejected")
	}
}

func TestFitNegBinomialRecovers(t *testing.T) {
	src := rng.New(4)
	const r, p = 5, 0.4
	xs := make([]float64, 8000)
	for i := range xs {
		// Failures before r successes: a sum of r geometric draws.
		for k := 0; k < r; k++ {
			xs[i] += math.Floor(math.Log(1-src.Float64()) / math.Log(1-p))
		}
	}
	nb, err := FitNegBinomial(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nb.R-r) > 0.7 || math.Abs(nb.P-p) > 0.05 {
		t.Errorf("fit = %+v, want r=%d p=%v", nb, r, p)
	}
	if c := nb.CDF(1000); !almost(c, 1, 1e-6) {
		t.Errorf("CDF tail = %v", c)
	}
}

func TestFitNegBinomialRejectsUnderdispersed(t *testing.T) {
	// Poisson data (variance == mean) cannot fit a negative binomial.
	src := rng.New(5)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(src.Poisson(4))
	}
	if _, err := FitNegBinomial(xs); err == nil {
		t.Skip("sample happened to be over-dispersed; acceptable")
	}
}

func TestCompareDistributionsPrefersTruth(t *testing.T) {
	// Normal data: the normal candidate should win the K-S comparison,
	// reproducing §4.1.3's model-selection outcome.
	wins := 0
	for seed := uint64(0); seed < 10; seed++ {
		xs := normalSample(seed+20, 150, 40, 6)
		fits := CompareDistributions(xs)
		if len(fits) != 4 {
			t.Fatalf("expected 4 candidates, got %d", len(fits))
		}
		// The winner is the fit with the highest K-S p-value.
		best := DistributionFit{}
		for _, f := range fits {
			if f.Err == nil && (best.Name == "" || f.KS.P > best.KS.P) {
				best = f
			}
		}
		if best.Name == "normal" {
			wins++
		}
	}
	if wins < 7 {
		t.Errorf("normal won only %d of 10 rounds on normal data", wins)
	}
}
