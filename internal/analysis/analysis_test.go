package analysis

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"phirel/internal/bench"
	"phirel/internal/state"
)

func out2d(vals []float64, x, y int) bench.Output {
	return bench.Output{Vals: vals, Shape: state.Dims2(x, y)}
}

func TestCompareIdentical(t *testing.T) {
	g := out2d([]float64{1, 2, 3, 4}, 2, 2)
	if ms := Compare(g, out2d([]float64{1, 2, 3, 4}, 2, 2)); len(ms) != 0 {
		t.Fatalf("mismatches on identical outputs: %v", ms)
	}
}

func TestCompareFindsCoordinates(t *testing.T) {
	g := out2d([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	got := out2d([]float64{1, 2, 9, 4, 5, 6}, 3, 2)
	ms := Compare(g, got)
	if len(ms) != 1 || ms[0].X != 2 || ms[0].Y != 0 || ms[0].Got != 9 || ms[0].Want != 3 {
		t.Fatalf("mismatch: %+v", ms)
	}
}

func TestCompareNaNSemantics(t *testing.T) {
	nan := math.NaN()
	g := out2d([]float64{nan, 1}, 2, 1)
	if ms := Compare(g, out2d([]float64{nan, 1}, 2, 1)); len(ms) != 0 {
		t.Fatal("matching NaNs flagged")
	}
	ms := Compare(g, out2d([]float64{2, 1}, 2, 1))
	if len(ms) != 1 {
		t.Fatal("NaN→number not flagged")
	}
	ms = Compare(out2d([]float64{1, 1}, 2, 1), out2d([]float64{nan, 1}, 2, 1))
	if len(ms) != 1 || !math.IsInf(relErr(ms[0].Got, ms[0].Want), 1) {
		t.Fatal("number→NaN must be an infinite relative error")
	}
}

func TestCompareLengthMismatch(t *testing.T) {
	ms := Compare(out2d([]float64{1, 2}, 2, 1), out2d([]float64{1}, 1, 1))
	if len(ms) != 1 || ms[0].Index != -1 {
		t.Fatalf("sentinel mismatch expected, got %v", ms)
	}
}

// compareAppending is Compare as it was before it counted first: one loop
// appending through slice doubling. It is the reference of
// TestCompareAllocatesOnce.
func compareAppending(golden, got bench.Output) []Mismatch {
	if len(golden.Vals) != len(got.Vals) {
		return []Mismatch{{Index: -1, Got: float64(len(got.Vals)), Want: float64(len(golden.Vals))}}
	}
	var out []Mismatch
	for i, want := range golden.Vals {
		g := got.Vals[i]
		if g == want {
			continue
		}
		if g != g && want != want { // both NaN
			continue
		}
		x, y, z := golden.Shape.Coord(i)
		out = append(out, Mismatch{Index: i, X: x, Y: y, Z: z, Got: g, Want: want})
	}
	return out
}

// TestCompareAllocatesOnce: the counting Compare returns what the appending
// one did — nil included, and NaNs by their bits, which DeepEqual alone
// would call unequal — and allocates at most once, nothing on a clean
// output.
func TestCompareAllocatesOnce(t *testing.T) {
	nan := math.NaN()
	const n = 96
	golden := make([]float64, n*n)
	full := make([]float64, n*n)
	for i := range golden {
		golden[i] = float64(i)
		full[i] = float64(i) + 0.5
	}
	sparse := append([]float64(nil), golden...)
	sparse[0], sparse[n*n/2], sparse[n*n-1] = -1, nan, math.Inf(1)
	for _, tc := range []struct {
		name        string
		golden, got bench.Output
		allocs      float64
	}{
		{"empty", out2d(nil, 0, 0), out2d(nil, 0, 0), 0},
		{"clean", out2d(golden, n, n), out2d(append([]float64(nil), golden...), n, n), 0},
		{"NaN pairs", out2d([]float64{nan, nan, 1, nan}, 4, 1), out2d([]float64{nan, 2, nan, nan}, 4, 1), 1},
		{"length mismatch", out2d(golden, n, n), out2d(golden[:n], n, 1), 1},
		{"sparse", out2d(golden, n, n), out2d(sparse, n, n), 1},
		{"full matrix", out2d(golden, n, n), out2d(full, n, n), 1},
	} {
		got, want := Compare(tc.golden, tc.got), compareAppending(tc.golden, tc.got)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%s: %d mismatches (nil: %v), the appending loop found %d (nil: %v)", tc.name, len(got), got == nil, len(want), want == nil)
		}
		for i := range got {
			g, w := got[i], want[i]
			gotBits, wantBits := [2]uint64{math.Float64bits(g.Got), math.Float64bits(g.Want)}, [2]uint64{math.Float64bits(w.Got), math.Float64bits(w.Want)}
			g.Got, g.Want, w.Got, w.Want = 0, 0, 0, 0
			if !reflect.DeepEqual(g, w) || gotBits != wantBits {
				t.Fatalf("%s: mismatch %d is %+v, the appending loop found %+v", tc.name, i, got[i], want[i])
			}
		}
		if a := testing.AllocsPerRun(20, func() { Compare(tc.golden, tc.got) }); a > tc.allocs {
			t.Errorf("%s: %v allocations per Compare, want at most %v", tc.name, a, tc.allocs)
		}
	}
}

func TestRelErr(t *testing.T) {
	if r := relErr(110, 100); math.Abs(r-0.1) > 1e-12 {
		t.Fatalf("rel err %v", r)
	}
	if r := relErr(1e-3, 0); r < 1e6 {
		t.Fatalf("zero-want rel err should be huge, got %v", r)
	}
}

func TestMaxRelErr(t *testing.T) {
	golden := out2d([]float64{100, 100, 7}, 3, 1)
	if _, _, worst := Summarize(golden, out2d([]float64{101, 150, 7}, 3, 1)); math.Abs(worst-0.5) > 1e-12 {
		t.Fatalf("max rel err %v", worst)
	}
	if _, _, worst := Summarize(golden, golden); worst != 0 {
		t.Fatal("clean max rel err")
	}
	if n, p, worst := Summarize(out2d([]float64{1, 2}, 2, 1), out2d([]float64{1}, 1, 1)); n != 1 || p != PatternSingle || worst != 0.5 {
		t.Fatalf("length mismatch: %d %v %v, want Compare's sentinel: 1 Single 0.5", n, p, worst)
	}
}

// corrupt returns a zero golden output of shape sh and a copy with the
// elements at idxs set to vals (1 where vals runs out).
func corrupt(sh state.Dims, idxs []int, vals ...float64) (golden, got bench.Output) {
	golden = bench.Output{Vals: make([]float64, sh.Len()), Shape: sh}
	got = bench.Output{Vals: make([]float64, sh.Len()), Shape: sh}
	for i, idx := range idxs {
		got.Vals[idx] = 1
		if i < len(vals) {
			got.Vals[idx] = vals[i]
		}
	}
	return golden, got
}

// classify is Summarize's pattern for the elements idxs of a zero output of
// shape sh corrupted to 1.
func classify(sh state.Dims, idxs ...int) Pattern {
	_, p, _ := Summarize(corrupt(sh, idxs))
	return p
}

func TestClassifyBasicPatterns(t *testing.T) {
	sh := state.Dims2(8, 8)
	if classify(sh) != PatternNone {
		t.Fatal("empty should be none")
	}
	if classify(sh, 12) != PatternSingle {
		t.Fatal("one element should be single")
	}
	// Row segment: indices 8..12 are row 1.
	if got := classify(sh, 8, 9, 10, 11, 12); got != PatternLine {
		t.Fatalf("row segment = %v", got)
	}
	// Column: indices 3, 11, 19.
	if got := classify(sh, 3, 11, 19); got != PatternLine {
		t.Fatalf("column = %v", got)
	}
	// Dense 3x3 block rooted at (1,1).
	if got := classify(sh, 9, 10, 11, 17, 18, 19, 25, 26, 27); got != PatternSquare {
		t.Fatalf("block = %v", got)
	}
	// Two far-apart corners: spans 2 dims but density 2/64 → random.
	if got := classify(sh, 0, 63); got != PatternRandom {
		t.Fatalf("scatter = %v", got)
	}
}

func TestClassifyCubic(t *testing.T) {
	sh := state.Dims3(4, 4, 4)
	var idxs []int
	for z := 0; z < 2; z++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				idxs = append(idxs, sh.Index(x, y, z))
			}
		}
	}
	if got := classify(sh, idxs...); got != PatternCubic {
		t.Fatalf("dense 2x2x2 = %v", got)
	}
	// Sparse 3-D scatter → random.
	if got := classify(sh, sh.Index(0, 0, 0), sh.Index(3, 3, 3), sh.Index(0, 3, 1)); got != PatternRandom {
		t.Fatalf("3-D scatter = %v", got)
	}
}

// Property: a set of corrupted elements has one classification whatever
// values they hold — swapping two of the values keeps the count, the
// pattern and the worst relative error, and the count is Compare's —
// and a non-empty set is never None.
func TestClassifyPermutationInvariantQuick(t *testing.T) {
	sh := state.Dims2(16, 16)
	f := func(raw []uint16, swapA, swapB uint8) bool {
		if len(raw) == 0 {
			return true
		}
		seen := map[int]bool{}
		var idxs []int
		var vals []float64
		for _, r := range raw {
			idx := int(r) % sh.Len()
			if !seen[idx] {
				seen[idx] = true
				idxs = append(idxs, idx)
				vals = append(vals, float64(r)+1)
			}
		}
		golden, got := corrupt(sh, idxs, vals...)
		n, before, worst := Summarize(golden, got)
		a, b := int(swapA)%len(idxs), int(swapB)%len(idxs)
		vals[a], vals[b] = vals[b], vals[a]
		n2, after, worst2 := Summarize(corrupt(sh, idxs, vals...))
		return n == len(idxs) && n == len(Compare(golden, got)) && n2 == n &&
			before == after && worst == worst2 && before != PatternNone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a full row is always a line; a full dense rectangle of height
// and width >1 is always a square.
func TestClassifyStructuredQuick(t *testing.T) {
	sh := state.Dims2(12, 12)
	f := func(rowR, wR, hR uint8) bool {
		row := int(rowR) % 12
		w := int(wR)%11 + 2
		var idxs []int
		for x := 0; x < w; x++ {
			idxs = append(idxs, sh.Index(x, row, 0))
		}
		if classify(sh, idxs...) != PatternLine {
			return false
		}
		h := int(hR)%11 + 2
		if row+h > 12 {
			h = 12 - row
		}
		if h < 2 {
			return true
		}
		idxs = idxs[:0]
		for y := row; y < row+h; y++ {
			for x := 0; x < w; x++ {
				idxs = append(idxs, sh.Index(x, y, 0))
			}
		}
		return classify(sh, idxs...) == PatternSquare
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range append([]Pattern{PatternNone}, Patterns...) {
		if p.String() == "" {
			t.Fatal("empty pattern name")
		}
	}
}

// TestFITMath checks the paper's FIT = σ · Φ · P(outcome|fault) · 10⁹ as
// RateFITEstimate computes it, from the raw fault rate σ · Φ.
func TestFITMath(t *testing.T) {
	// σ=1e-12 cm² at Φ=13 n/(cm²·h), P=50/100: FIT = 1e-12 * 13 * 0.5 * 1e9 = 6.5e-3.
	e := RateFITEstimate(1e-12*NaturalFlux, 50, 100)
	if math.Abs(e.FIT-6.5e-3) > 1e-15 {
		t.Fatalf("FIT = %v", e.FIT)
	}
	if z := RateFITEstimate(1e-12*NaturalFlux, 0, 100); z.FIT != 0 || z.CI.Lo != 0 {
		t.Fatalf("zero events: %+v", z)
	}
}

// TestNewFITEstimate checks that a FIT estimate keeps its counts and that
// the Wilson interval of k/n, scaled like the estimate, brackets it.
func TestNewFITEstimate(t *testing.T) {
	e := RateFITEstimate(1e-10*NaturalFlux, 50, 100)
	if e.K != 50 || e.N != 100 {
		t.Fatal("counts")
	}
	if !(e.CI.Lo < e.FIT && e.FIT < e.CI.Hi) {
		t.Fatalf("CI %v does not bracket %v", e.CI, e.FIT)
	}
}

func TestMTBF(t *testing.T) {
	if MTBFHours(100) != 1e7 {
		t.Fatalf("MTBF = %v", MTBFHours(100))
	}
	if !math.IsInf(MTBFHours(0), 1) {
		t.Fatal("zero FIT must be infinite MTBF")
	}
}

// The paper's extrapolation: ~150-160 FIT on 19,000 boards ≈ failure every
// 11-12 days.
func TestTrinityExtrapolation(t *testing.T) {
	days := MachineMTBFDays(150, 19000)
	if days < 10 || days > 16 {
		t.Fatalf("Trinity-scale MTBF = %.1f days, want ~11-15", days)
	}
	if !math.IsInf(MachineMTBFDays(0, 19000), 1) || !math.IsInf(MachineMTBFDays(100, 0), 1) {
		t.Fatal("degenerate extrapolations")
	}
}

func TestToleranceCurve(t *testing.T) {
	relErrs := []float64{0.0001, 0.003, 0.04, 1.0}
	curve := ToleranceCurve(relErrs, []float64{0.001, 0.01, 0.1, 2.0})
	want := []float64{25, 50, 75, 100}
	for i := range curve {
		if math.Abs(curve[i]-want[i]) > 1e-9 {
			t.Fatalf("curve = %v, want %v", curve, want)
		}
	}
	if c := ToleranceCurve(nil, []float64{0.1}); c[0] != 0 {
		t.Fatal("empty curve should be zero")
	}
}

// Property: the tolerance curve is monotone non-decreasing in tolerance.
func TestToleranceCurveMonotoneQuick(t *testing.T) {
	f := func(errsRaw []float64) bool {
		var errs []float64
		for _, e := range errsRaw {
			errs = append(errs, math.Abs(e))
		}
		curve := ToleranceCurve(errs, DefaultTolerances)
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
