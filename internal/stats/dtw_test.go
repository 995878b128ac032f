package stats

import (
	"math"
	"testing"

	"toto/internal/rng"
)

// dtw is unconstrained DTW with a rolling two-row table, the reference
// DTWWindow must match when its band is wide.
func dtw(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	// Keep b as the shorter series so the rows are minimal.
	if len(b) > len(a) {
		a, b = b, a
	}
	n, m := len(a), len(b)
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		curr[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			curr[j] = cost + best
		}
		prev, curr = curr, prev
	}
	return prev[m], nil
}

// unbanded is a DTWWindow radius no series in these tests reaches, so the
// band never binds.
const unbanded = 1 << 20

func TestDTWIdenticalSeries(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	d, err := DTWWindow(a, a, unbanded)
	if err != nil || d != 0 {
		t.Fatalf("DTW(a, a) = %v, %v", d, err)
	}
}

func TestDTWKnownValue(t *testing.T) {
	// Hand-checked alignment: [1,2,3] vs [1,3]:
	// path (1,1)(2,3)(3,3) costs 0 + 1 + 0 = 1.
	d, err := DTWWindow([]float64{1, 2, 3}, []float64{1, 3}, unbanded)
	if err != nil || d != 1 {
		t.Fatalf("DTW = %v, want 1", d)
	}
}

func TestDTWShiftTolerance(t *testing.T) {
	// A time-shifted copy of a pattern should have much lower DTW than
	// RMSE-style pointwise distance would suggest.
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = math.Sin(float64(i) / 5)
		b[i] = math.Sin(float64(i-3) / 5) // shifted by 3 samples
	}
	d, err := DTWWindow(a, b, unbanded)
	if err != nil {
		t.Fatal(err)
	}
	pointwise := 0.0
	for i := range a {
		pointwise += math.Abs(a[i] - b[i])
	}
	if d > pointwise/3 {
		t.Errorf("DTW (%v) did not absorb a small time shift (pointwise %v)", d, pointwise)
	}
}

func TestDTWSymmetric(t *testing.T) {
	a := []float64{1, 5, 2, 8, 3}
	b := []float64{2, 4, 4, 7}
	d1, _ := DTWWindow(a, b, unbanded)
	d2, _ := DTWWindow(b, a, unbanded)
	if d1 != d2 {
		t.Errorf("DTW not symmetric: %v vs %v", d1, d2)
	}
}

func TestDTWEmpty(t *testing.T) {
	if _, err := DTWWindow(nil, []float64{1}, unbanded); err == nil {
		t.Error("empty series not rejected")
	}
}

func TestDTWWindowMatchesUnconstrainedWhenWide(t *testing.T) {
	src := rng.New(1)
	a := make([]float64, 60)
	b := make([]float64, 50)
	for i := range a {
		a[i] = src.Normal(0, 1)
	}
	for i := range b {
		b[i] = src.Normal(0, 1)
	}
	full, err := dtw(a, b)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := DTWWindow(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(full, windowed, 1e-9) {
		t.Errorf("wide-window DTW %v != unconstrained %v", windowed, full)
	}
}

func TestDTWWindowIsUpperBoundedByBand(t *testing.T) {
	// A narrow band can only raise the distance (fewer paths allowed).
	src := rng.New(2)
	a := make([]float64, 80)
	b := make([]float64, 80)
	for i := range a {
		a[i] = src.Normal(0, 1)
		b[i] = src.Normal(0, 1)
	}
	full, _ := dtw(a, b)
	narrow, err := DTWWindow(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if narrow < full-1e-9 {
		t.Errorf("narrow-band DTW %v below unconstrained %v", narrow, full)
	}
}

func TestDTWWindowNegativeRadius(t *testing.T) {
	if _, err := DTWWindow([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative radius not rejected")
	}
}

func TestDTWWindowLengthMismatchConnects(t *testing.T) {
	// Band must widen to connect corners when lengths differ.
	a := make([]float64, 50)
	b := make([]float64, 20)
	d, err := DTWWindow(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(d, 1) {
		t.Error("window too narrow to connect series of different lengths")
	}
}
