package changepoint

import (
	"reflect"
	"testing"

	"toto/internal/rng"
	"toto/internal/stats"
)

// noisy builds a piecewise-constant series with deterministic Gaussian
// jitter: segment i contributes lens[i] samples around means[i].
func noisy(t *testing.T, seed uint64, sigma float64, means []float64, lens []int) stats.Series {
	t.Helper()
	r := rng.New(seed)
	var vals []float64
	for i, m := range means {
		for j := 0; j < lens[i]; j++ {
			vals = append(vals, r.Normal(m, sigma))
		}
	}
	s, err := stats.NewSeries(vals)
	if err != nil {
		t.Fatalf("NewSeries: %v", err)
	}
	return s
}

// nearest returns the detected point closest to index, if any.
func nearest(points []Point, index int) (Point, bool) {
	dist := func(p Point) int { return max(p.Index-index, index-p.Index) }
	best, ok := Point{}, false
	for _, p := range points {
		if !ok || dist(p) < dist(best) {
			best, ok = p, true
		}
	}
	return best, ok
}

func TestDetectSingleShift(t *testing.T) {
	s := noisy(t, 7, 0.3, []float64{1, 5}, []int{30, 30})
	pts := Detect(s, DefaultOptions())
	if len(pts) == 0 {
		t.Fatal("no change point found in a 1→5 step series")
	}
	p, ok := nearest(pts, 30)
	if !ok || p.Index < 27 || p.Index > 33 {
		t.Fatalf("strongest point at %d, want ≈30 (points: %+v)", p.Index, pts)
	}
	if p.MeanBefore >= p.MeanAfter {
		t.Fatalf("means not increasing across the shift: %v → %v", p.MeanBefore, p.MeanAfter)
	}
	if p.P > DefaultOptions().Alpha {
		t.Fatalf("shift not significant: p=%v", p.P)
	}
}

func TestDetectTwoShifts(t *testing.T) {
	s := noisy(t, 11, 0.2, []float64{0, 4, 0.5}, []int{25, 25, 25})
	pts := Detect(s, DefaultOptions())
	if len(pts) < 2 {
		t.Fatalf("want ≥2 change points for a 0→4→0.5 series, got %+v", pts)
	}
	if _, ok := nearest(pts, 25); !ok {
		t.Fatal("missing point near 25")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Index >= pts[i].Index {
			t.Fatalf("points not sorted by index: %+v", pts)
		}
	}
}

func TestDetectConstantSeries(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 2.5
	}
	s, _ := stats.NewSeries(vals)
	if pts := Detect(s, DefaultOptions()); len(pts) != 0 {
		t.Fatalf("constant series produced change points: %+v", pts)
	}
}

func TestDetectPureNoise(t *testing.T) {
	s := noisy(t, 13, 1.0, []float64{3}, []int{80})
	if pts := Detect(s, DefaultOptions()); len(pts) != 0 {
		t.Fatalf("stationary noise produced change points: %+v", pts)
	}
}

func TestDetectDeterministic(t *testing.T) {
	s := noisy(t, 17, 0.4, []float64{1, 3}, []int{40, 40})
	a := Detect(s, DefaultOptions())
	b := Detect(s, DefaultOptions())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same input, same seed, different verdicts:\n%+v\n%+v", a, b)
	}
}

func TestDetectTooShort(t *testing.T) {
	s, err := stats.NewSeries([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pts := Detect(s, DefaultOptions()); pts != nil {
		t.Fatalf("series shorter than 2*MinSegment produced points: %+v", pts)
	}
}

func TestMinSegmentRespected(t *testing.T) {
	// A lone spike at the end: with MinSegment 5 no split may isolate it.
	vals := make([]float64, 40)
	vals[39] = 100
	s, _ := stats.NewSeries(vals)
	opt := DefaultOptions()
	for _, p := range Detect(s, opt) {
		if p.Index < opt.MinSegment || p.Index > s.Len()-opt.MinSegment {
			t.Fatalf("split at %d violates MinSegment=%d", p.Index, opt.MinSegment)
		}
	}
}
