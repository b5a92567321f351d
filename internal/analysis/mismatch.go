// Package analysis implements the paper's output-error analysis: mismatch
// extraction against golden outputs, the spatial-pattern taxonomy of §4.3
// (single / line / square / cubic / random), the relative-error and
// FIT-vs-tolerance machinery of §4.4, and FIT/MTBF conversions including
// machine-scale extrapolation.
package analysis

import (
	"math"

	"phirel/internal/bench"
)

// Mismatch is one output element that differs from golden.
type Mismatch struct {
	Index   int
	X, Y, Z int
	Got     float64
	Want    float64
}

// relErr returns |got-want| / |want| for one element, +Inf for NaN/Inf
// corruption, and |got| scaled by a tiny floor when the expected value is
// zero (so spurious values on zero background register as large errors).
func relErr(got, want float64) float64 {
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return math.Inf(1)
	}
	denom := math.Abs(want)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return math.Abs(got-want) / denom
}

// differs reports whether got is a mismatch against want: any difference
// of value, except that NaN matches NaN. It is the one per-element test of
// Compare and Summarize.
func differs(got, want float64) bool {
	return got != want && !(got != got && want != want)
}

// Compare returns the mismatching elements of got against golden. Outputs
// of different lengths (a truncated run) are reported as a single sentinel
// mismatch at index -1. Matching NaNs (both NaN) are not mismatches. A
// first pass counts, so a clean output returns nil without allocating and a
// corrupted one allocates its mismatches once, at their exact size.
// Classification takes Summarize's pass instead; the benchmark module's
// analysis.<kernel>.compare_us row still times this list form.
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

// Summarize is the one pass a run's classification takes over got
// against golden: how many elements differ (as Compare finds them), their
// spatial pattern from the bounding box they span, and the worst relative
// error among them (0 when none differ) — the paper's per-SDC severity
// measure. It builds no mismatch list and allocates nothing. Outputs of
// different lengths are Compare's sentinel: one mismatch, a single, with
// the relative error of the lengths.
func Summarize(golden, got bench.Output) (n int, p Pattern, maxRelErr float64) {
	if len(golden.Vals) != len(got.Vals) {
		return 1, PatternSingle, relErr(float64(len(got.Vals)), float64(len(golden.Vals)))
	}
	var lo, hi [3]int
	for i, want := range golden.Vals {
		g := got.Vals[i]
		if !differs(g, want) {
			continue
		}
		x, y, z := golden.Shape.Coord(i)
		if n == 0 {
			lo, hi = [3]int{x, y, z}, [3]int{x, y, z}
		} else {
			lo = [3]int{min(lo[0], x), min(lo[1], y), min(lo[2], z)}
			hi = [3]int{max(hi[0], x), max(hi[1], y), max(hi[2], z)}
		}
		n++
		if r := relErr(g, want); r > maxRelErr {
			maxRelErr = r
		}
	}
	return n, pattern(n, hi[0]-lo[0]+1, hi[1]-lo[1]+1, hi[2]-lo[2]+1), maxRelErr
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
