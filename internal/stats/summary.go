package stats

// ExceedanceFraction returns the fraction of values strictly greater than
// threshold — the primitive behind FIT-vs-tolerance curves (an SDC "counts"
// at tolerance t when its relative error exceeds t).
func ExceedanceFraction(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}
