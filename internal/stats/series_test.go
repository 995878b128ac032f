package stats

import (
	"errors"
	"math"
	"testing"
)

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty sample: got %v, want ErrEmpty", err)
	}
	if _, err := NewSeries([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := NewSeries([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("+Inf accepted")
	}
	s, err := NewSeries([]float64{3, 1, 2})
	if err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
	if got := s.Values(); s.Len() != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("Len/Values wrong: %d %v", s.Len(), got)
	}
}

func TestSeriesCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	s, _ := NewSeries(src)
	src[0] = 99
	if got := s.Values(); got[0] != 1 {
		t.Fatalf("Series aliases caller slice: %v", got)
	}
	v := s.Values()
	v[1] = 99
	if got := s.Values(); got[1] != 2 {
		t.Fatalf("Values does not copy: %v", got)
	}
}

func TestWilcoxonSeriesMatchesSliceEntry(t *testing.T) {
	a := []float64{1.1, 2.3, 3.0, 4.8, 5.5, 6.1, 7.7, 8.2}
	b := []float64{1.0, 2.5, 2.9, 5.0, 5.1, 6.4, 7.5, 8.9}
	r1, err1 := Wilcoxon(a, b)
	sa, _ := NewSeries(a)
	sb, _ := NewSeries(b)
	r2, err2 := WilcoxonSeries(sa, sb)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if r1 != r2 {
		t.Fatalf("wrapper and Series entry disagree: %+v vs %+v", r1, r2)
	}
}

func TestWilcoxonLegacyContract(t *testing.T) {
	if _, err := Wilcoxon([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Wilcoxon([]float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrAllZeroDiffs) {
		t.Fatalf("identical samples: got %v, want ErrAllZeroDiffs", err)
	}
	if _, err := Wilcoxon(nil, nil); !errors.Is(err, ErrAllZeroDiffs) {
		t.Fatalf("empty samples: got %v, want ErrAllZeroDiffs", err)
	}
}

func TestKSTwoSampleSeriesMatchesSliceEntry(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{1.5, 2.5, 3.5, 4.5, 9, 10, 11, 12}
	r1 := KSTwoSample(a, b)
	sa, _ := NewSeries(a)
	sb, _ := NewSeries(b)
	r2 := KSTwoSampleSeries(sa, sb)
	if r1 != r2 {
		t.Fatalf("wrapper and Series entry disagree: %+v vs %+v", r1, r2)
	}
}

func TestKSTestEmptyStillPanicsErrEmpty(t *testing.T) {
	defer func() {
		if r := recover(); !errors.Is(r.(error), ErrEmpty) {
			t.Fatalf("panic value %v, want ErrEmpty", r)
		}
	}()
	KSTest(nil, func(float64) float64 { return 0 })
}
