package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIsPureAndLabelled(t *testing.T) {
	root := New(7)
	a1 := root.Split("node-1")
	// Splitting again with the same label must give the same stream even
	// after the first child has been consumed.
	for i := 0; i < 10; i++ {
		a1.Uint64()
	}
	a2 := root.Split("node-1")
	b := root.Split("node-2")
	first := a2.Uint64()
	if first == b.Uint64() {
		t.Fatal("differently labelled splits produced the same first draw")
	}
	a3 := root.Split("node-1")
	if a3.Uint64() != first {
		t.Fatal("split is not a pure function of (seed, label)")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	a.Split("x")
	a.Split("y")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", v)
		}
	}
}

func TestIntnBoundsAndCoverage(t *testing.T) {
	s := New(4)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn never produced %d in 10000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(5)
	const n = 200000
	const mean, sigma = 3.5, 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(mean, sigma)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumSq/n - m*m)
	if math.Abs(m-mean) > 0.02 {
		t.Errorf("Normal mean = %v, want %v", m, mean)
	}
	if math.Abs(sd-sigma) > 0.02 {
		t.Errorf("Normal sd = %v, want %v", sd, sigma)
	}
}

func TestNormalZeroSigmaIsMean(t *testing.T) {
	s := New(6)
	for i := 0; i < 10; i++ {
		if v := s.Normal(7, 0); v != 7 {
			t.Fatalf("Normal(7, 0) = %v", v)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	s := New(9)
	for _, mean := range []float64{0.5, 4, 20, 100} {
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		v := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > 0.10*mean+0.1 {
			t.Errorf("Poisson(%v) variance = %v", mean, v)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	if v := New(1).Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(12)
	const p = 0.3
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-p) > 0.01 {
		t.Errorf("Bernoulli(%v) frequency = %v", p, f)
	}
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	s := New(14)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.15 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanics(t *testing.T) {
	for _, weights := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Choice(%v) did not panic", weights)
				}
			}()
			New(1).Choice(weights)
		}()
	}
}

func TestUniformRangeProperty(t *testing.T) {
	s := New(15)
	f := func(lo, span float64) bool {
		lo = math.Mod(lo, 1e6)
		span = math.Abs(math.Mod(span, 1e6))
		v := s.UniformRange(lo, lo+span)
		return v >= lo && (span == 0 || v < lo+span) && (span != 0 || v == lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUnbiasedProperty(t *testing.T) {
	// Property: Intn(n) is always in range for arbitrary positive n.
	s := New(16)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := s.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
