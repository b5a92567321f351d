package stats

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestNewRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agree on %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other and from the parent's continuation.
	agree12, agreeP := 0, 0
	for i := 0; i < 200; i++ {
		v1, v2, vp := c1.Uint64(), c2.Uint64(), parent.Uint64()
		if v1 == v2 {
			agree12++
		}
		if v1 == vp {
			agreeP++
		}
	}
	if agree12 > 2 || agreeP > 2 {
		t.Fatalf("split streams overlap: agree12=%d agreeParent=%d", agree12, agreeP)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Float64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := (sumSq - n*mean*mean) / (n - 1)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Fatalf("uniform variance = %v, want ~1/12", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUnbiasedQuick(t *testing.T) {
	r := NewRNG(9)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		n = n%1000 + 1
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul64MatchesStdlibQuick(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		whi, wlo := bits.Mul64(a, b)
		return hi == whi && lo == wlo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]uint64{{0, 0}, {1, 1}, {math.MaxUint64, 2}, {1 << 32, 1 << 32}} {
		hi, lo := mul64(c[0], c[1])
		whi, wlo := bits.Mul64(c[0], c[1])
		if hi != whi || lo != wlo {
			t.Errorf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c[0], c[1], hi, lo, whi, wlo)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", p)
	}
}

func TestPermIsPermutationQuick(t *testing.T) {
	r := NewRNG(31)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPickWeighted(t *testing.T) {
	r := NewRNG(41)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.PickWeighted(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("picked zero-weight index %d times", counts[1])
	}
	p0 := float64(counts[0]) / n
	if math.Abs(p0-0.25) > 0.02 {
		t.Fatalf("index 0 rate %v, want ~0.25", p0)
	}
}

func TestPickWeightedNegativeTreatedAsZero(t *testing.T) {
	r := NewRNG(43)
	w := []float64{-5, 2, -1}
	for i := 0; i < 100; i++ {
		if r.PickWeighted(w) != 1 {
			t.Fatal("PickWeighted selected a negative-weight index")
		}
	}
}

func TestPickWeightedPanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).PickWeighted([]float64{0, 0})
}
