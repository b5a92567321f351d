package lud

import (
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/stats"
)

func small() *LUD { return New(Config{N: 32, Block: 8, Workers: 2}, 11) }

// reconstruct multiplies the packed L\U factors back together.
func reconstruct(vals []float64, n int) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				lv := vals[i*n+k]
				if k == i {
					lv = 1 // unit diagonal of L
				}
				if k > i {
					lv = 0
				}
				uv := 0.0
				if k <= j {
					uv = vals[k*n+j]
				}
				s += lv * uv
			}
			out[i*n+j] = s
		}
	}
	return out
}

func TestLUDFactorsReconstructInput(t *testing.T) {
	l := small()
	r, err := bench.NewRunner(l)
	if err != nil {
		t.Fatal(err)
	}
	n := l.Size()
	rec := reconstruct(r.Golden.Vals, n)
	orig := l.a0
	maxRel := 0.0
	for i := range rec {
		denom := math.Abs(float64(orig[i])) + 1
		rel := math.Abs(rec[i]-float64(orig[i])) / denom
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 1e-4 {
		t.Fatalf("L·U does not reconstruct A: max rel err %v", maxRel)
	}
}

func TestLUDDeterministic(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("re-run differs")
	}
}

func TestLUDTicksThreePerStep(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	if r.TotalTicks != 3*(32/8) {
		t.Fatalf("ticks = %d, want 12", r.TotalTicks)
	}
	if l.Windows() != 4 {
		t.Fatal("paper splits LUD into 4 windows")
	}
}

func TestLUDEarlyMatrixFaultSpreadsWide(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	res := r.RunInjected(0, func() {
		l.a.Data[0] *= 4 // corrupt A[0][0] before factoring
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	bad := 0
	for i := range res.Output.Vals {
		if res.Output.Vals[i] != r.Golden.Vals[i] {
			bad++
		}
	}
	// A[0][0] is the first pivot: its corruption must contaminate a large
	// fraction of both factors.
	if bad < len(res.Output.Vals)/8 {
		t.Fatalf("pivot corruption affected only %d/%d elements", bad, len(res.Output.Vals))
	}
}

func TestLUDLateFaultStaysLocal(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	lastTick := r.TotalTicks - 1
	res := r.RunInjected(lastTick, func() {
		l.a.Data[3] += 1 // row 0 is finalized early; late fault can't spread
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	bad := 0
	for i := range res.Output.Vals {
		if res.Output.Vals[i] != r.Golden.Vals[i] {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("late corruption vanished")
	}
	if bad > 4 {
		t.Fatalf("late corruption of a finalized element spread to %d elements", bad)
	}
}

func TestLUDControlCorruptionNotMasked(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	// A huge step counter exits the block loop early: a truncated
	// decomposition (SDC). It must never be masked.
	res := r.RunInjected(4, func() { l.kCur.Store(1 << 30) })
	if res.Status == bench.Completed && bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("corrupted step counter was masked")
	}
	// A negative counter trips the geometry guard: DUE-crash.
	res = r.RunInjected(4, func() { l.kCur.Store(-3) })
	if res.Status != bench.Crashed {
		t.Fatalf("negative step counter: status %v, want Crashed", res.Status)
	}
}

func TestLUDGeometryGuard(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	res := r.RunInjected(3, func() { l.nCell.Store(17) })
	if res.Status != bench.Crashed {
		t.Fatalf("status %v, want Crashed from geometry guard", res.Status)
	}
}

func TestLUDTempFrameVisibleDuringPerimeter(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	// Tick 1 of each step is the perimeter phase (ticks 0,1,2 per step).
	sawTemp := false
	res := r.RunInjected(1, func() {
		for _, s := range l.Registry().Live() {
			if s.Region() == "temp" {
				sawTemp = true
			}
		}
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	if !sawTemp {
		t.Fatal("diaTmp not live at perimeter tick")
	}
	// And it must NOT be live at a diagonal tick.
	sawTemp = false
	r.RunInjected(0, func() {
		for _, s := range l.Registry().Live() {
			if s.Region() == "temp" {
				sawTemp = true
			}
		}
	})
	if sawTemp {
		t.Fatal("diaTmp leaked outside the perimeter phase")
	}
}

func TestLUDTempCorruptionPropagates(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	rng := stats.NewRNG(5)
	anyEffect := false
	for trial := 0; trial < 10 && !anyEffect; trial++ {
		res := r.RunInjected(1, func() {
			for _, s := range l.Registry().Live() {
				if s.Region() == "temp" {
					s.Corrupt(rng, fault.Random)
					return
				}
			}
		})
		if res.Status != bench.Completed || !bench.CompareExact(r.Golden, res.Output) {
			anyEffect = true
		}
	}
	if !anyEffect {
		t.Fatal("corrupting diaTmp never had any effect in 10 trials")
	}
}

func TestLUDResetRestores(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	rng := stats.NewRNG(6)
	r.RunInjected(2, func() { l.a.CorruptElem(rng, fault.Random, 40) })
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("Reset did not restore")
	}
}

func TestLUDRegistered(t *testing.T) {
	b, err := bench.New("LUD", 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Class() != bench.Algebraic {
		t.Fatal("class")
	}
}

func TestLUDBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{N: 30, Block: 8, Workers: 1}, // not a multiple
		{N: 0, Block: 8, Workers: 1},
		{N: 32, Block: 8, Workers: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v accepted", cfg)
				}
			}()
			New(cfg, 1)
		}()
	}
}
