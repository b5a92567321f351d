package fleet

import (
	"math/rand"
	"testing"
)

func TestTrialRangeAlgebra(t *testing.T) {
	r := TrialRange{Offset: 10, N: 20} // [10, 30)
	cases := []struct {
		name  string
		o     TrialRange
		cover bool
	}{
		{"identical", TrialRange{10, 20}, true},
		{"inner", TrialRange{15, 5}, true},
		{"prefix", TrialRange{10, 8}, true},
		{"suffix", TrialRange{25, 5}, true},
		{"left overhang", TrialRange{0, 15}, false},
		{"right overhang", TrialRange{25, 20}, false},
		{"superset", TrialRange{0, 50}, false},
		{"disjoint left", TrialRange{0, 5}, false},
		{"disjoint right", TrialRange{40, 5}, false},
		{"touching", TrialRange{30, 5}, false},
		{"empty", TrialRange{17, 0}, true},
		{"empty outside", TrialRange{90, 0}, true},
	}
	for _, c := range cases {
		if got := r.Covers(c.o); got != c.cover {
			t.Errorf("%s: %+v.Covers(%+v) = %v, want %v", c.name, r, c.o, got, c.cover)
		}
	}
	if r.End() != 30 || r.Empty() || !(TrialRange{Offset: 30}).Empty() {
		t.Error("End/Empty disagree with [10, 30) and an empty range")
	}
}

// TestTrialRangeAlgebraProperties checks the laws the shard planners lean
// on, over randomly drawn ranges: Split partitions a range contiguously for
// any count, and every piece is covered by the range it came from.
func TestTrialRangeAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		r := TrialRange{Offset: rng.Intn(40), N: rng.Intn(30)}
		// Split partitions r for any count.
		count := 1 + rng.Intn(6)
		next := r.Offset
		for k := 0; k < count; k++ {
			p := r.Split(k, count)
			if p.Offset != next || p.N < 0 || !r.Covers(p) {
				t.Fatalf("Split(%d, %d) of %+v not contiguous: %+v at %d", k, count, r, p, next)
			}
			next = p.End()
		}
		if next != r.End() {
			t.Fatalf("Split(%d) of %+v covers to %d, want %d", count, r, next, r.End())
		}
	}
}
