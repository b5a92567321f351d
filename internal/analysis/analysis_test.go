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
	if len(ms) != 1 || !math.IsInf(ms[0].RelErr(), 1) {
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
	m := Mismatch{Got: 110, Want: 100}
	if math.Abs(m.RelErr()-0.1) > 1e-12 {
		t.Fatalf("rel err %v", m.RelErr())
	}
	z := Mismatch{Got: 1e-3, Want: 0}
	if z.RelErr() < 1e6 {
		t.Fatalf("zero-want rel err should be huge, got %v", z.RelErr())
	}
}

func TestMaxRelErr(t *testing.T) {
	ms := []Mismatch{{Got: 101, Want: 100}, {Got: 150, Want: 100}}
	if math.Abs(MaxRelErr(ms)-0.5) > 1e-12 {
		t.Fatalf("max rel err %v", MaxRelErr(ms))
	}
	if MaxRelErr(nil) != 0 {
		t.Fatal("empty max rel err")
	}
}

func mk(shape state.Dims, idxs ...int) []Mismatch {
	ms := make([]Mismatch, len(idxs))
	for i, idx := range idxs {
		x, y, z := shape.Coord(idx)
		ms[i] = Mismatch{Index: idx, X: x, Y: y, Z: z, Got: 1, Want: 0}
	}
	return ms
}

func TestClassifyBasicPatterns(t *testing.T) {
	sh := state.Dims2(8, 8)
	if Classify(nil, sh) != PatternNone {
		t.Fatal("empty should be none")
	}
	if Classify(mk(sh, 12), sh) != PatternSingle {
		t.Fatal("one element should be single")
	}
	// Row segment: indices 8..12 are row 1.
	if got := Classify(mk(sh, 8, 9, 10, 11, 12), sh); got != PatternLine {
		t.Fatalf("row segment = %v", got)
	}
	// Column: indices 3, 11, 19.
	if got := Classify(mk(sh, 3, 11, 19), sh); got != PatternLine {
		t.Fatalf("column = %v", got)
	}
	// Dense 3x3 block rooted at (1,1).
	block := mk(sh, 9, 10, 11, 17, 18, 19, 25, 26, 27)
	if got := Classify(block, sh); got != PatternSquare {
		t.Fatalf("block = %v", got)
	}
	// Two far-apart corners: spans 2 dims but density 2/64 → random.
	if got := Classify(mk(sh, 0, 63), sh); got != PatternRandom {
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
	if got := Classify(mk(sh, idxs...), sh); got != PatternCubic {
		t.Fatalf("dense 2x2x2 = %v", got)
	}
	// Sparse 3-D scatter → random.
	if got := Classify(mk(sh, sh.Index(0, 0, 0), sh.Index(3, 3, 3), sh.Index(0, 3, 1)), sh); got != PatternRandom {
		t.Fatalf("3-D scatter = %v", got)
	}
}

// Property: classification is invariant under permutation of the mismatch
// list, and never returns None for a non-empty list.
func TestClassifyPermutationInvariantQuick(t *testing.T) {
	sh := state.Dims2(16, 16)
	f := func(raw []uint16, swapA, swapB uint8) bool {
		if len(raw) == 0 {
			return true
		}
		seen := map[int]bool{}
		var idxs []int
		for _, r := range raw {
			idx := int(r) % sh.Len()
			if !seen[idx] {
				seen[idx] = true
				idxs = append(idxs, idx)
			}
		}
		ms := mk(sh, idxs...)
		before := Classify(ms, sh)
		if len(ms) > 1 {
			a, b := int(swapA)%len(ms), int(swapB)%len(ms)
			ms[a], ms[b] = ms[b], ms[a]
		}
		after := Classify(ms, sh)
		return before == after && before != PatternNone
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
		if Classify(mk(sh, idxs...), sh) != PatternLine {
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
		return Classify(mk(sh, idxs...), sh) == PatternSquare
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
