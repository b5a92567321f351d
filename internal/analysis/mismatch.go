// Package analysis implements the paper's output-error analysis: mismatch
// extraction against golden outputs, the spatial-pattern taxonomy of §4.3
// (single / line / square / cubic / random), the relative-error and
// FIT-vs-tolerance machinery of §4.4, and FIT/MTBF conversions including
// machine-scale extrapolation.
package analysis

import (
	"math"

	"phirel/internal/bench"
	"phirel/internal/state"
)

// Mismatch is one output element that differs from golden.
type Mismatch struct {
	Index   int
	X, Y, Z int
	Got     float64
	Want    float64
}

// RelErr returns |got-want| / |want| for this element, +Inf for NaN/Inf
// corruption, and |got| scaled by a tiny floor when the expected value is
// zero (so spurious values on zero background register as large errors).
func (m Mismatch) RelErr() float64 {
	if math.IsNaN(m.Got) || math.IsInf(m.Got, 0) {
		return math.Inf(1)
	}
	denom := math.Abs(m.Want)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(m.Got-m.Want) / denom
}

// differs reports whether got is a mismatch against want: any difference
// of value, except that NaN matches NaN.
func differs(got, want float64) bool {
	return got != want && !(got != got && want != want)
}

// Compare returns the mismatching elements of got against golden. Outputs
// of different lengths (a truncated run) are reported as a single sentinel
// mismatch at index -1 so callers still classify the run as an SDC.
// Matching NaNs (both NaN) are not mismatches. A first pass counts, so a
// clean output returns nil without allocating and a corrupted one allocates
// its mismatches once, at their exact size.
func Compare(golden, got bench.Output) []Mismatch {
	if len(golden.Vals) != len(got.Vals) {
		return []Mismatch{{Index: -1, Got: float64(len(got.Vals)), Want: float64(len(golden.Vals))}}
	}
	n := 0
	for i, want := range golden.Vals {
		if differs(got.Vals[i], want) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Mismatch, 0, n)
	for i, want := range golden.Vals {
		if g := got.Vals[i]; differs(g, want) {
			x, y, z := golden.Shape.Coord(i)
			out = append(out, Mismatch{Index: i, X: x, Y: y, Z: z, Got: g, Want: want})
		}
	}
	return out
}

// MaxRelErr returns the worst relative error across mismatches (0 when
// empty) — the paper's per-SDC severity measure.
func MaxRelErr(ms []Mismatch) float64 {
	worst := 0.0
	for _, m := range ms {
		if r := m.RelErr(); r > worst {
			worst = r
		}
	}
	return worst
}

// FiniteRelErr clamps infinite relative errors (NaN/Inf corruption) to
// MaxFloat64 so records remain JSON-serialisable; any tolerance threshold
// still classifies the value as exceeding it.
func FiniteRelErr(r float64) float64 {
	if math.IsInf(r, 1) || math.IsNaN(r) {
		return math.MaxFloat64
	}
	return r
}

// CorruptedFraction returns the fraction of output elements that mismatch.
func CorruptedFraction(ms []Mismatch, shape state.Dims) float64 {
	if shape.Len() == 0 {
		return 0
	}
	return float64(len(ms)) / float64(shape.Len())
}
