package beam

import (
	"strings"
	"testing"

	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/phi"
	"phirel/internal/stats"
)

// strikeAt plans a strike of effect e at tick and runs it, the decided ones
// included, returning the record's Detail and the run's result.
func strikeAt(runner *bench.Runner, dev *phi.Device, e Effect, tick int, rng *stats.RNG) (string, bench.RawResult) {
	s := planStrike(runner, e, tick, rng)
	detail := s.detail
	res := runner.RunInjected(tick, func() { detail = s.apply(runner, dev, rng) })
	return detail, res
}

// Every effect planned on a quiescent benchmark must find a target, produce
// a self-consistent description and leave the benchmark runnable.
func TestApplyEffectAllKinds(t *testing.T) {
	b, err := bench.New("DGEMM", 1)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := bench.NewRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	dev := phi.NewKNC3120A()
	rng := stats.NewRNG(9)
	for _, e := range []Effect{EffectSingle, EffectVectorLanes, EffectCacheLine, EffectThreadTile, EffectControl} {
		// Any terminal status is legal; the harness must survive.
		detail, _ := strikeAt(runner, dev, e, 2, rng)
		if detail == "" || strings.HasSuffix(detail, ":none-live") {
			t.Fatalf("effect %v found no target: %q", e, detail)
		}
		if want := e.String() + ":"; e != EffectControl && !strings.HasPrefix(detail, want) {
			t.Fatalf("effect %v described as %q", e, detail)
		}
	}
	// And a clean run afterwards still matches golden.
	clean := runner.RunGolden()
	if clean.Status != bench.Completed || !bench.CompareExact(runner.Golden, clean.Output) {
		t.Fatal("benchmark damaged across effect applications")
	}
}

// Vector-lane bursts must touch exactly VectorBits worth of consecutive
// elements when the chosen buffer is large enough: 512-bit lanes over f64
// are 8 elements. Corrupted inputs propagate, so the corruption description
// ([start+count]) is checked rather than the mismatches.
func TestVectorLanesBurstWidth(t *testing.T) {
	b, _ := bench.New("DGEMM", 1)
	runner, _ := bench.NewRunner(b)
	dev := phi.NewKNC3120A()
	rng := stats.NewRNG(11)
	for _, tick := range []int{0, 2} {
		if d, _ := strikeAt(runner, dev, EffectVectorLanes, tick, rng); !strings.HasSuffix(d, "+8]") {
			t.Fatalf("vector burst detail %q at tick %d does not end with %q", d, tick, "+8]")
		}
	}
}
