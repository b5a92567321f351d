package nw

import (
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/stats"
)

func small() *NW { return New(Config{N: 40, Penalty: 10, Workers: 2}, 13) }

// referenceDP computes the DP matrix serially for correctness comparison.
func referenceDP(w *NW) []int32 {
	n := w.cfg.N
	stride := n + 1
	out := make([]int32, stride*stride)
	p := int32(w.cfg.Penalty)
	for i := 1; i <= n; i++ {
		out[i*stride] = -int32(i) * p
		out[i] = -int32(i) * p
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			idx := i*stride + j
			best := out[idx-stride-1] + w.ref0[idx]
			if v := out[idx-1] - p; v > best {
				best = v
			}
			if v := out[idx-stride] - p; v > best {
				best = v
			}
			out[idx] = best
		}
	}
	return out
}

func TestNWMatchesSerialReference(t *testing.T) {
	w := small()
	r, err := bench.NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDP(w)
	n := w.cfg.N
	stride := n + 1
	// Output layout: final row, final column, then trace directions.
	for j := 0; j < stride; j++ {
		if int32(r.Golden.Vals[j]) != want[n*stride+j] {
			t.Fatalf("final row col %d: got %v want %d", j, r.Golden.Vals[j], want[n*stride+j])
		}
	}
	for i := 0; i < stride; i++ {
		if int32(r.Golden.Vals[stride+i]) != want[i*stride+n] {
			t.Fatalf("final col row %d: got %v want %d", i, r.Golden.Vals[stride+i], want[i*stride+n])
		}
	}
	if len(r.Golden.Vals) != 2*stride+2*n+1 {
		t.Fatalf("output length %d", len(r.Golden.Vals))
	}
}

func TestNWDeterministic(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("re-run differs")
	}
}

func TestNWOutputExactFlag(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	if !r.Golden.Exact {
		t.Fatal("NW output must be flagged exact (integer scores)")
	}
}

func TestNWTicks(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	// 1 init tick + (2n-1) diagonals + 1 traceback tick.
	if r.TotalTicks != 1+2*40-1+1 {
		t.Fatalf("ticks = %d", r.TotalTicks)
	}
}

// Paper §6 NW: the Zero model is overwhelmingly masked because the matrix
// holds zeros and small values.
func TestNWZeroModelMostlyMasked(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	rng := stats.NewRNG(17)
	masked := 0
	const trials = 200
	for k := 0; k < trials; k++ {
		tick := rng.Intn(r.TotalTicks)
		res := r.RunInjected(tick, func() {
			w.item.Corrupt(rng, fault.Zero)
		})
		if res.Status == bench.Completed && bench.CompareExact(r.Golden, res.Output) {
			masked++
		}
	}
	if masked < trials/3 {
		t.Fatalf("Zero-model masked only %d/%d; expected a large masked share", masked, trials)
	}
}

// Paper §6 NW: the Zero model is masked far more often than Random, because
// so many of the values NW manipulates are zero or are never consumed again.
func TestNWZeroMaskedMoreThanRandom(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	rng := stats.NewRNG(19)
	masked := func(m fault.Model) int {
		n := 0
		for k := 0; k < 400; k++ {
			tick := rng.Intn(r.TotalTicks)
			res := r.RunInjected(tick, func() {
				if rng.Bernoulli(0.5) {
					w.item.Corrupt(rng, m)
				} else {
					w.ref.Corrupt(rng, m)
				}
			})
			if res.Status == bench.Completed && bench.CompareExact(r.Golden, res.Output) {
				n++
			}
		}
		return n
	}
	z := masked(fault.Zero)
	rd := masked(fault.Random)
	if z <= rd {
		t.Fatalf("Zero masked %d/400, Random masked %d/400; want Zero strictly more masked", z, rd)
	}
}

// "NW will most likely crash when the value is largely different from the
// expected one": a corrupted cell on the optimal path makes the traceback
// inconsistent. Corrupting the corner right before traceback is the
// deterministic case.
func TestNWTracebackCrashOnPathCorruption(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	stride := w.cfg.N + 1
	lastTick := r.TotalTicks - 1 // the traceback tick
	res := r.RunInjected(lastTick, func() {
		w.item.Data[w.cfg.N*stride+w.cfg.N] += 12345
	})
	if res.Status != bench.Crashed {
		t.Fatalf("status %v, want Crashed from traceback inconsistency", res.Status)
	}
}

func TestNWDiagonalCorruptionGuard(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	res := r.RunInjected(5, func() { w.diagCur.Store(-100) })
	if res.Status != bench.Crashed {
		t.Fatalf("status %v, want Crashed from diagonal guard", res.Status)
	}
}

func TestNWCellCursorCorruptionCrashes(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	rng := stats.NewRNG(23)
	crashed := false
	for trial := 0; trial < 30 && !crashed; trial++ {
		res := r.RunInjected(20+trial, func() {
			w.workers[0][cCur].Arm(trial, fault.Random, rng.Split())
		})
		if res.Status == bench.Crashed {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("randomised cell cursor never crashed in 30 trials")
	}
}

func TestNWPenaltyCorruptionChangesOutput(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	res := r.RunInjected(10, func() { w.penalty.Store(1) })
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	if bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("gap-penalty corruption had no effect")
	}
}

func TestNWErrorPropagatesDownstream(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	stride := w.cfg.N + 1
	// Cell (5,5) lies on anti-diagonal 10, computed at tick 9; its readers
	// run at tick 10 (d=11), so injecting at tick 10 feeds the corruption
	// into the max recurrence.
	res := r.RunInjected(10, func() {
		w.item.Data[5*stride+5] += 1000
	})
	switch res.Status {
	case bench.Completed:
		// The +1000 cone must reach the final row/column.
		if bench.CompareExact(r.Golden, res.Output) {
			t.Fatal("large positive score did not propagate to the output")
		}
	case bench.Crashed:
		// Equally faithful: the inflated cell attracts the optimal path and
		// the traceback detects the inconsistency.
	default:
		t.Fatalf("status %v", res.Status)
	}
}

func TestNWResetRestores(t *testing.T) {
	w := small()
	r, _ := bench.NewRunner(w)
	rng := stats.NewRNG(29)
	r.RunInjected(3, func() { w.ref.CorruptElem(rng, fault.Random, 50) })
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("Reset did not restore")
	}
}

func TestNWRegistered(t *testing.T) {
	b, err := bench.New("NW", 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Class() != bench.DynProg || b.Windows() != 4 {
		t.Fatal("metadata")
	}
}

func TestNWSubstitutionSymmetric(t *testing.T) {
	for i := 0; i < alphabet; i++ {
		for j := 0; j < alphabet; j++ {
			if substitution[i][j] != substitution[j][i] {
				t.Fatalf("substitution not symmetric at (%d,%d)", i, j)
			}
		}
		if substitution[i][i] < 5 {
			t.Fatalf("diagonal score %d too small", substitution[i][i])
		}
	}
}

func TestNWBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{N: 1, Penalty: 10, Workers: 1}, 1)
}
