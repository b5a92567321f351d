package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExceedanceFraction(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3, 0.4}
	if got := ExceedanceFraction(xs, 0.25); got != 0.5 {
		t.Fatalf("exceedance = %v", got)
	}
	if got := ExceedanceFraction(xs, 0.4); got != 0 {
		t.Fatalf("boundary is not strict: %v", got)
	}
	if ExceedanceFraction(nil, 1) != 0 {
		t.Fatal("empty exceedance")
	}
}

// Property: exceedance is monotone non-increasing in the threshold.
func TestExceedanceMonotoneQuick(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		return ExceedanceFraction(xs, lo) >= ExceedanceFraction(xs, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
