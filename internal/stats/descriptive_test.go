package stats

import (
	"math"
	"testing"
	"testing/quick"

	"toto/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Unbiased variance of this classic sample is 32/7.
	if v := Variance(xs); !almost(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7)
	}
	if sd := StdDev(xs); !almost(sd, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", sd)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of single value != 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile([]float64{9}, 0.5) != 9 {
		t.Error("median of singleton")
	}
}

func TestQuantileUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestBoxPlot(t *testing.T) {
	// 1..11 plus one extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100}
	b := NewBoxPlot(xs)
	if b.N != 12 {
		t.Errorf("N = %d", b.N)
	}
	if b.Median != 6.5 {
		t.Errorf("Median = %v, want 6.5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.HiWhisk != 11 || b.LowWhisk != 1 {
		t.Errorf("whiskers = [%v, %v], want [1, 11]", b.LowWhisk, b.HiWhisk)
	}
}

func TestBoxPlotConstantSample(t *testing.T) {
	b := NewBoxPlot([]float64{4, 4, 4, 4})
	if b.Q1 != 4 || b.Q3 != 4 || b.LowWhisk != 4 || b.HiWhisk != 4 || len(b.Outliers) != 0 {
		t.Errorf("constant-sample box plot: %+v", b)
	}
}

func TestRMSE(t *testing.T) {
	v, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || v != 0 {
		t.Errorf("RMSE identical = %v, %v", v, err)
	}
	v, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil || !almost(v, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v, want sqrt(12.5)", v)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RMSE length mismatch not rejected")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("RMSE empty not rejected")
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if r, err := Correlation(a, b); err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v, %v", r, err)
	}
	c := []float64{8, 6, 4, 2}
	if r, _ := Correlation(a, c); !almost(r, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if _, err := Correlation(a, []float64{5, 5, 5, 5}); err == nil {
		t.Error("constant series correlation not rejected")
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	src := rng.New(5)
	f := func(n uint8, q float64) bool {
		size := int(n%40) + 1
		q = math.Abs(math.Mod(q, 1))
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = src.Normal(0, 10)
		}
		v := Quantile(xs, q)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
