package stats

import (
	"math"
	"testing"
	"testing/quick"

	"toto/internal/rng"
)

func normalSample(seed uint64, n int, mean, sigma float64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Normal(mean, sigma)
	}
	return xs
}

func TestKSAcceptsTrueDistribution(t *testing.T) {
	xs := normalSample(1, 200, 10, 2)
	res := KSTest(xs, func(x float64) float64 { return NormalCDF(x, 10, 2) })
	if res.Reject(0.05) {
		t.Errorf("K-S rejected the true distribution: D=%v p=%v", res.D, res.P)
	}
	if res.N != 200 {
		t.Errorf("N = %d", res.N)
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	xs := normalSample(2, 200, 10, 2)
	// Test against a badly shifted reference.
	res := KSTest(xs, func(x float64) float64 { return NormalCDF(x, 14, 2) })
	if !res.Reject(0.05) {
		t.Errorf("K-S failed to reject a 2-sigma-shifted reference: p=%v", res.P)
	}
}

func TestKSTestNormalOnNormalData(t *testing.T) {
	// With fitted parameters the test is conservative; all p should be
	// comfortably above 0.05 across several seeds.
	rejected := 0
	for seed := uint64(0); seed < 20; seed++ {
		res := KSTestNormal(normalSample(seed+10, 100, 5, 3))
		if res.Reject(0.05) {
			rejected++
		}
	}
	if rejected > 2 {
		t.Errorf("K-S normality rejected %d of 20 normal samples", rejected)
	}
}

func TestKSTestNormalOnSkewedData(t *testing.T) {
	// Exponential data is clearly non-normal.
	src := rng.New(3)
	rejected := 0
	for trial := 0; trial < 10; trial++ {
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = -math.Log(1 - src.Float64()) // rate 1
		}
		if KSTestNormal(xs).Reject(0.05) {
			rejected++
		}
	}
	if rejected < 8 {
		t.Errorf("K-S normality rejected only %d of 10 exponential samples", rejected)
	}
}

func TestKSTestNormalConstantSample(t *testing.T) {
	res := KSTestNormal([]float64{5, 5, 5})
	if res.P != 1 || res.D != 0 {
		t.Errorf("constant sample: D=%v P=%v, want 0, 1", res.D, res.P)
	}
}

func TestKSTwoSampleSameSource(t *testing.T) {
	a := normalSample(4, 300, 0, 1)
	b := normalSample(5, 300, 0, 1)
	if res := KSTwoSample(a, b); res.Reject(0.05) {
		t.Errorf("two-sample K-S rejected same-distribution samples: p=%v", res.P)
	}
}

func TestKSTwoSampleDifferentSource(t *testing.T) {
	a := normalSample(6, 300, 0, 1)
	b := normalSample(7, 300, 1.0, 1)
	if res := KSTwoSample(a, b); !res.Reject(0.05) {
		t.Errorf("two-sample K-S missed a 1-sigma shift: p=%v", res.P)
	}
}

func TestKolmogorovQEdgeBehaviour(t *testing.T) {
	if p := kolmogorovQ(0); p != 1 {
		t.Errorf("Q(0) = %v", p)
	}
	if p := kolmogorovQ(10); p > 1e-10 {
		t.Errorf("Q(10) = %v, want ~0", p)
	}
	// Known value: Q(1.0) ≈ 0.27.
	if p := kolmogorovQ(1.0); !almost(p, 0.27, 0.01) {
		t.Errorf("Q(1.0) = %v, want ~0.27", p)
	}
}

func TestNormalCDFValues(t *testing.T) {
	if v := NormalCDF(0, 0, 1); !almost(v, 0.5, 1e-12) {
		t.Errorf("Phi(0) = %v", v)
	}
	if v := NormalCDF(1.96, 0, 1); !almost(v, 0.975, 1e-3) {
		t.Errorf("Phi(1.96) = %v", v)
	}
	if v := NormalCDF(8, 5, 3); !almost(v, NormalCDF(1, 0, 1), 1e-12) {
		t.Errorf("scaled CDF mismatch: %v", v)
	}
}

func TestKSPValueInRangeProperty(t *testing.T) {
	src := rng.New(8)
	f := func(n uint8, shift float64) bool {
		size := int(n%100) + 5
		shift = math.Mod(shift, 3)
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = src.Normal(shift, 1)
		}
		res := KSTest(xs, func(x float64) float64 { return NormalCDF(x, 0, 1) })
		return res.P >= 0 && res.P <= 1 && res.D >= 0 && res.D <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
