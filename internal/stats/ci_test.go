package stats

import (
	"testing"
	"testing/quick"
)

// inside reports whether x lies in the closed interval [Lo, Hi].
func inside(iv Interval, x float64) bool { return iv.Lo <= x && x <= iv.Hi }

func TestWilsonIntervalBasic(t *testing.T) {
	iv := WilsonInterval(50, 100, 0.95)
	if !inside(iv, 0.5) {
		t.Fatalf("Wilson(50,100) %v does not contain 0.5", iv)
	}
	if iv.Lo < 0.39 || iv.Hi > 0.61 {
		t.Fatalf("Wilson(50,100) unexpectedly wide: %v", iv)
	}
}

func TestWilsonIntervalEdge(t *testing.T) {
	zero := WilsonInterval(0, 100, 0.95)
	if zero.Lo != 0 {
		t.Errorf("Wilson(0,100).Lo = %v, want 0", zero.Lo)
	}
	if zero.Hi <= 0 || zero.Hi > 0.06 {
		t.Errorf("Wilson(0,100).Hi = %v, want small positive", zero.Hi)
	}
	full := WilsonInterval(100, 100, 0.95)
	if full.Hi != 1 {
		t.Errorf("Wilson(100,100).Hi = %v, want 1", full.Hi)
	}
	if full.Lo >= 1 || full.Lo < 0.94 {
		t.Errorf("Wilson(100,100).Lo = %v", full.Lo)
	}
}

func TestWilsonIntervalDegenerateN(t *testing.T) {
	iv := WilsonInterval(0, 0, 0.95)
	if iv.Lo != 0 || iv.Hi != 1 {
		t.Fatalf("Wilson with n=0 should be vacuous [0,1], got %v", iv)
	}
}

// Property: the Wilson interval always lies in [0,1], always contains the
// point estimate, and shrinks as n grows.
func TestWilsonIntervalPropertiesQuick(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%5000) + 1
		k := int(kRaw) % (n + 1)
		iv := WilsonInterval(k, n, 0.95)
		p := float64(k) / float64(n)
		if iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Hi {
			return false
		}
		if !inside(iv, p) {
			return false
		}
		bigger := WilsonInterval(k*4, n*4, 0.95)
		return bigger.Hi-bigger.Lo <= iv.Hi-iv.Lo+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProportion(t *testing.T) {
	p := NewProportion(25, 100)
	if p.P != 0.25 {
		t.Fatalf("P = %v", p.P)
	}
	if p.Percent() != 25 {
		t.Fatalf("Percent = %v", p.Percent())
	}
	if !inside(p.CI, 0.25) {
		t.Fatalf("CI %v misses estimate", p.CI)
	}
}

func TestProportionEmpty(t *testing.T) {
	p := NewProportion(0, 0)
	if p.P != 0 {
		t.Fatalf("empty proportion P = %v", p.P)
	}
}

// The paper requires enough events that the 95% CI half-width is below 10%
// of the estimate; check our machinery agrees that ~100 events out of a
// large population reaches roughly that precision.
func TestPaperPrecisionRule(t *testing.T) {
	p := NewProportion(400, 4000)
	if rel := (p.CI.Hi - p.CI.Lo) / 2 / p.P; rel > 0.10 {
		t.Fatalf("400/4000 should give <=10%% relative half-width, got %v", rel)
	}
}

func TestZForMonotone(t *testing.T) {
	levels := []float64{0.5, 0.80, 0.90, 0.95, 0.99, 0.999}
	prev := 0.0
	for _, c := range levels {
		z := zFor(c)
		if z <= prev {
			t.Fatalf("zFor not monotone at %v", c)
		}
		prev = z
	}
}

func TestIntervalHelpers(t *testing.T) {
	if got := (Interval{1, 3}).String(); got != "[1, 3]" {
		t.Fatalf("String() = %q, want [1, 3]", got)
	}
}
