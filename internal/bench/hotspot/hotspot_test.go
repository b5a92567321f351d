package hotspot

import (
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

func small() *HotSpot { return New(Config{Rows: 24, Cols: 24, Iters: 40, Workers: 2}, 7) }

func TestHotSpotGolden(t *testing.T) {
	h := small()
	r, err := bench.NewRunner(h)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalTicks != 40 {
		t.Fatalf("ticks = %d, want 40 (one per sweep)", r.TotalTicks)
	}
	for i, v := range r.Golden.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("golden value %d is %v", i, v)
		}
		// Temperatures must stay in a physically sane band around ambient.
		if v < 60 || v > 120 {
			t.Fatalf("golden value %d = %v out of sane range", i, v)
		}
	}
}

func TestHotSpotDeterministic(t *testing.T) {
	h := small()
	r, _ := bench.NewRunner(h)
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("re-run differs")
	}
}

func TestHotSpotConvergesTowardSteadyState(t *testing.T) {
	// With constant power, successive sweeps must approach a fixed point:
	// the mean absolute change per sweep at the end should be far below the
	// change at the start.
	a := New(Config{Rows: 24, Cols: 24, Iters: 10, Workers: 2}, 7)
	b := New(Config{Rows: 24, Cols: 24, Iters: 200, Workers: 2}, 7)
	c := New(Config{Rows: 24, Cols: 24, Iters: 210, Workers: 2}, 7)
	ra, _ := bench.NewRunner(a)
	rb, _ := bench.NewRunner(b)
	rc, _ := bench.NewRunner(c)
	diffEarly := meanAbsDiff(ra.Golden.Vals, rb.Golden.Vals)
	diffLate := meanAbsDiff(rb.Golden.Vals, rc.Golden.Vals)
	if diffLate > diffEarly/10 {
		t.Fatalf("not converging: early drift %v, late drift %v", diffEarly, diffLate)
	}
}

func meanAbsDiff(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}

// liveGrid is the temperature grid a run reads: during a run, the buffer
// the current sweep reads from; afterwards, the buffer holding the result.
func liveGrid(h *HotSpot) *state.Buf[float32] {
	if h.final != nil {
		return h.final
	}
	return h.tA
}

// The paper's central HotSpot observation: injected deltas attenuate, and
// the earlier the injection the smaller the final error.
func TestHotSpotAttenuation(t *testing.T) {
	h := New(Config{Rows: 24, Cols: 24, Iters: 120, Workers: 2}, 7)
	r, _ := bench.NewRunner(h)
	inject := func(tick int) float64 {
		res := r.RunInjected(tick, func() {
			liveGrid(h).Data[12*24+12] += 1000 // +1000 degrees at grid centre
		})
		if res.Status != bench.Completed {
			t.Fatalf("status %v", res.Status)
		}
		return maxAbsDiff(r.Golden.Vals, res.Output.Vals)
	}
	early := inject(5)
	late := inject(115)
	if late <= 0 {
		t.Fatal("late injection had no effect")
	}
	if early > late/1000 {
		t.Fatalf("attenuation too weak: early residual %v vs late %v", early, late)
	}
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Errors must also spread: a mid-run point injection should corrupt many
// cells by the end (the paper's "line/square" patterns for stencils).
func TestHotSpotErrorSpread(t *testing.T) {
	h := New(Config{Rows: 24, Cols: 24, Iters: 60, Workers: 2}, 7)
	r, _ := bench.NewRunner(h)
	res := r.RunInjected(30, func() {
		liveGrid(h).Data[12*24+12] += 1e9
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	corrupted := 0
	for i := range res.Output.Vals {
		if res.Output.Vals[i] != r.Golden.Vals[i] {
			corrupted++
		}
	}
	if corrupted < 50 {
		t.Fatalf("stencil spread only %d cells", corrupted)
	}
}

func TestHotSpotConstantCorruptionIsSerious(t *testing.T) {
	h := small()
	r, _ := bench.NewRunner(h)
	rng := stats.NewRNG(3)
	res := r.RunInjected(10, func() {
		h.cx.Arm(0, fault.Random, rng) // fires at next sweep's reload
	})
	switch res.Status {
	case bench.Completed:
		if bench.CompareExact(r.Golden, res.Output) {
			t.Fatal("randomised diffusion coefficient had no effect")
		}
	case bench.Crashed, bench.Hung:
		// Acceptable: NaN/Inf storms can trip the row guard via
		// corrupted downstream state.
	}
}

func TestHotSpotIterEndCorruptionHangs(t *testing.T) {
	h := small()
	r, _ := bench.NewRunner(h)
	res := r.RunInjected(5, func() {
		h.iterEnd.Store(1 << 40)
	})
	if res.Status != bench.Hung {
		t.Fatalf("status = %v, want Hung", res.Status)
	}
}

func TestHotSpotRowCursorCorruptionCrashes(t *testing.T) {
	h := small()
	r, _ := bench.NewRunner(h)
	rng := stats.NewRNG(4)
	sawCrash := false
	for trial := 0; trial < 20 && !sawCrash; trial++ {
		res := r.RunInjected(3, func() {
			h.workers[0].rCur.Arm(10+trial, fault.Random, rng.Split())
		})
		if res.Status == bench.Crashed {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("randomising a live row cursor never crashed in 20 trials")
	}
}

func TestHotSpotZeroAmbientShiftsEverything(t *testing.T) {
	h := small()
	r, _ := bench.NewRunner(h)
	rng := stats.NewRNG(5)
	res := r.RunInjected(0, func() {
		h.amb.Arm(0, fault.Zero, rng)
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	corrupted := 0
	for i := range res.Output.Vals {
		if res.Output.Vals[i] != r.Golden.Vals[i] {
			corrupted++
		}
	}
	if corrupted < len(res.Output.Vals)/2 {
		t.Fatalf("zeroed ambient affected only %d cells", corrupted)
	}
}

func TestHotSpotResetRestores(t *testing.T) {
	h := small()
	r, _ := bench.NewRunner(h)
	rng := stats.NewRNG(6)
	r.RunInjected(2, func() { h.power.CorruptElem(rng, fault.Random, 3) })
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("Reset did not restore state")
	}
}

func TestHotSpotRegistered(t *testing.T) {
	b, err := bench.New("HotSpot", 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Class() != bench.Stencil || b.Windows() != 5 {
		t.Fatal("metadata wrong")
	}
}

func TestHotSpotBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Rows: 1, Cols: 10, Iters: 1, Workers: 1}, 1)
}
