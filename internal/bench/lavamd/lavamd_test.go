package lavamd

import (
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

func small() *LavaMD { return New(Config{NB: 3, PPB: 6, Alpha: 0.5, Workers: 2}, 21) }

// referenceForces computes forces serially over ALL particle pairs within
// the neighbour boxes, mirroring box() independently.
func referenceForces(l *LavaMD) []float64 {
	nb, ppb := l.cfg.NB, l.cfg.PPB
	n := nb * nb * nb * ppb
	out := make([]float64, 4*n)
	a2 := 2 * l.cfg.Alpha * l.cfg.Alpha
	for b := 0; b < nb*nb*nb; b++ {
		for p := 0; p < ppb; p++ {
			i := b*ppb + p
			xi, yi, zi := l.rv0[3*i], l.rv0[3*i+1], l.rv0[3*i+2]
			for k := 0; k < 27; k++ {
				nbIdx := l.nn0[27*b+k]
				if nbIdx < 0 {
					continue
				}
				for q := 0; q < ppb; q++ {
					j := nbIdx*ppb + q
					dx := xi - l.rv0[3*j]
					dy := yi - l.rv0[3*j+1]
					dz := zi - l.rv0[3*j+2]
					r2 := dx*dx + dy*dy + dz*dz
					vij := math.Exp(-a2 * r2)
					fs := 2 * a2 * vij
					out[4*i+0] += l.qv0[j] * vij
					out[4*i+1] += l.qv0[j] * fs * dx
					out[4*i+2] += l.qv0[j] * fs * dy
					out[4*i+3] += l.qv0[j] * fs * dz
				}
			}
		}
	}
	return out
}

func TestLavaMDMatchesReference(t *testing.T) {
	l := small()
	r, err := bench.NewRunner(l)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceForces(l)
	for i, v := range r.Golden.Vals {
		if math.Abs(v-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("force %d: got %v want %v", i, v, want[i])
		}
	}
}

func TestLavaMDDeterministic(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("re-run differs")
	}
}

func TestLavaMDTicksPerRow(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	if r.TotalTicks != 3*3 {
		t.Fatalf("ticks = %d, want NB² = 9", r.TotalTicks)
	}
}

func TestLavaMDSelfInteractionDominates(t *testing.T) {
	// The v component includes the self pair (r²=0, vij=1): each particle's
	// potential must be at least its own charge's contribution.
	l := small()
	r, _ := bench.NewRunner(l)
	for i := 0; i < len(r.Golden.Vals); i += 4 {
		if r.Golden.Vals[i] <= 0 {
			t.Fatalf("particle %d potential %v not positive", i/4, r.Golden.Vals[i])
		}
	}
}

// Corrupting a particle position mid-run must corrupt forces in its own and
// neighbouring boxes — the 3-D spread behind the paper's cubic pattern.
func TestLavaMDPositionCorruptionSpreads3D(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	// Pick the first particle of the centre box (1,1,1).
	nb, ppb := l.cfg.NB, l.cfg.PPB
	centre := (1*nb+1)*nb + 1
	res := r.RunInjected(0, func() {
		l.rv.Data[3*centre*ppb] += 0.5 // shift x of first particle
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	// Collect the set of boxes containing at least one corrupted force.
	boxes := map[int]bool{}
	for i := range res.Output.Vals {
		if res.Output.Vals[i] != r.Golden.Vals[i] {
			boxes[i/(4*ppb)] = true
		}
	}
	if len(boxes) < 27 {
		t.Fatalf("corruption reached %d boxes, want all 27 neighbours of the centre", len(boxes))
	}
}

func TestLavaMDChargeCorruptionAffectsNeighbours(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	ppb := l.cfg.PPB
	res := r.RunInjected(0, func() {
		l.qv.Data[0] += 10 // charge of first particle of box 0
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	boxes := map[int]bool{}
	for i := range res.Output.Vals {
		if res.Output.Vals[i] != r.Golden.Vals[i] {
			boxes[i/(4*ppb)] = true
		}
	}
	// Box 0 is a corner: it has 8 neighbour boxes (including itself).
	if len(boxes) != 8 {
		t.Fatalf("corner charge corruption reached %d boxes, want 8", len(boxes))
	}
}

func TestLavaMDNeighbourListCorruptionCrashes(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	res := r.RunInjected(0, func() {
		l.nn.Data[0] = 1 << 40 // out-of-range box index
	})
	if res.Status != bench.Crashed {
		t.Fatalf("status %v, want Crashed from neighbour index", res.Status)
	}
}

func TestLavaMDNeighbourListSmallCorruptionIsSDC(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	res := r.RunInjected(0, func() {
		l.nn.Data[27*0+13] = 2 // home box of box 0 redirected to box 2
	})
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	if bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("redirected neighbour box had no effect")
	}
}

func TestLavaMDBoxCursorCorruption(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	rng := stats.NewRNG(23)
	sawBad := false
	for trial := 0; trial < 20 && !sawBad; trial++ {
		res := r.RunInjected(trial%r.TotalTicks, func() {
			l.workers[0].bCur.Arm(trial, fault.Random, rng.Split())
		})
		if res.Status != bench.Completed || !bench.CompareExact(r.Golden, res.Output) {
			sawBad = true
		}
	}
	if !sawBad {
		t.Fatal("randomised box cursor never had any effect in 20 trials")
	}
}

func TestLavaMDConstantCorruption(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	res := r.RunInjected(2, func() { l.a2.Store(100) })
	if res.Status != bench.Completed {
		t.Fatalf("status %v", res.Status)
	}
	if bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("corrupted interaction constant had no effect")
	}
}

func TestLavaMDResetRestores(t *testing.T) {
	l := small()
	r, _ := bench.NewRunner(l)
	rng := stats.NewRNG(29)
	r.RunInjected(1, func() { l.rv.CorruptElem(rng, fault.Random, 10) })
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("Reset did not restore")
	}
}

func TestLavaMDOutputShape3D(t *testing.T) {
	l := small()
	sh := l.fv.Shape
	if sh.Z != 3 || sh.Y != 3 || sh.X != 4*6*3 {
		t.Fatalf("output shape %v", sh)
	}
}

func TestLavaMDRegistered(t *testing.T) {
	b, err := bench.New("LavaMD", 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Class() != bench.NBody {
		t.Fatal("class")
	}
}

func TestLavaMDRegionFootprints(t *testing.T) {
	l := small()
	rb := map[state.Region]int{}
	for _, s := range l.Registry().Live() {
		rb[s.Region()] += s.SizeBytes()
	}
	n := 3 * 3 * 3 * 6
	if rb["distance"] != 3*n*8 || rb["charge"] != n*8 {
		t.Fatalf("charge/distance footprints wrong: %v", rb)
	}
	// The paper's point: inputs dwarf the scalar sites.
	if rb["distance"]+rb["charge"] < 100*rb["constant"] {
		t.Fatalf("input arrays should dominate: %v", rb)
	}
}

func TestLavaMDBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{NB: 1, PPB: 4, Alpha: 0.5, Workers: 1}, 1)
}
