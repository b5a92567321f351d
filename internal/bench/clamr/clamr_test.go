package clamr

import (
	"math"
	"testing"
	"testing/quick"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

func small() *CLAMR {
	return New(Config{Base: 8, MaxLevel: 2, Steps: 10, Workers: 2,
		RefineThresh: 0.4, CoarsenThresh: 0.08}, 1)
}

func TestCLAMRGoldenRuns(t *testing.T) {
	c := small()
	r, err := bench.NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalTicks != 4*10 {
		t.Fatalf("ticks = %d, want 4 per step", r.TotalTicks)
	}
	for i, v := range r.Golden.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("golden output %d is %v", i, v)
		}
		if v <= 0 || v > 20 {
			t.Fatalf("height %d = %v outside physical range", i, v)
		}
	}
}

func TestCLAMRDeterministic(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("re-run differs")
	}
}

func TestCLAMRWavePropagates(t *testing.T) {
	// The dam-break wave must move outward: the initial step has high H
	// only inside the radius; after the run, cells outside must have
	// gained height.
	c := small()
	r, _ := bench.NewRunner(c)
	fine := c.fine
	corner := r.Golden.Vals[1*fine+1]
	if corner <= 2.0 && math.Abs(corner-2.0) < 1e-9 {
		t.Fatalf("corner height %v unchanged; wave did not propagate", corner)
	}
}

func TestCLAMRMeshRefinesAtFront(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	r.RunGolden() // the runner's construction ends with Reset
	// After the golden run the mesh must hold more cells than the uniform
	// level-1 start (refinement happened) and fewer than capacity.
	n := c.ncell.Load()
	initial := (8 * 2) * (8 * 2)
	if n <= initial {
		t.Fatalf("cell count %d did not grow beyond initial %d", n, initial)
	}
	if n > c.cap {
		t.Fatalf("cell count %d exceeds capacity", n)
	}
}

func TestCLAMRActiveCellsPeakEarlyMiddle(t *testing.T) {
	// Paper: CLAMR's active cell count reaches its maximum around window 3
	// of 9. Track the count across steps.
	c := New(Config{Base: 8, MaxLevel: 2, Steps: 30, Workers: 2,
		RefineThresh: 0.4, CoarsenThresh: 0.08}, 1)
	r, _ := bench.NewRunner(c)
	counts := make([]int, 0, 30)
	// Re-run and snapshot the cell count at each remesh tick (ticks 3,7,...).
	for step := 0; step < 30; step++ {
		res := r.RunInjected(4*step+3, func() {
			counts = append(counts, c.ncell.Load())
		})
		if res.Status != bench.Completed {
			t.Fatalf("probe run failed: %v", res.Status)
		}
	}
	maxIdx, maxVal := 0, 0
	for i, v := range counts {
		if v > maxVal {
			maxIdx, maxVal = i, v
		}
	}
	if maxVal <= counts[0] {
		t.Fatal("cell count never grew")
	}
	if maxIdx > 2*len(counts)/3 {
		t.Fatalf("cell count peaked at step %d of %d; expected an early-middle peak", maxIdx, len(counts))
	}
}

func TestCLAMRMortonRoundTrip(t *testing.T) {
	f := func(xr, yr uint16) bool {
		x, y := int(xr%256), int(yr%256)
		m := morton(x, y)
		// Decode by de-interleaving.
		dx, dy := 0, 0
		for b := 0; b < 16; b++ {
			dx |= (m >> (2 * b) & 1) << b
			dy |= (m >> (2*b + 1) & 1) << b
		}
		return dx == x && dy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCLAMRMortonOrderGroupsSiblings(t *testing.T) {
	// The four children of any parent must be contiguous in Morton order.
	for _, p := range [][2]int{{0, 0}, {1, 2}, {3, 3}} {
		base := morton(2*p[0], 2*p[1])
		keys := []int{
			morton(2*p[0], 2*p[1]), morton(2*p[0]+1, 2*p[1]),
			morton(2*p[0], 2*p[1]+1), morton(2*p[0]+1, 2*p[1]+1),
		}
		for _, k := range keys {
			if k < base || k >= base+4 {
				t.Fatalf("sibling keys of parent %v not contiguous: %v", p, keys)
			}
		}
	}
}

func TestCLAMRMergeSortSorts(t *testing.T) {
	r := stats.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		keys := make([]int, n)
		perm := make([]int, n)
		orig := make([]int, n)
		for i := range keys {
			keys[i] = r.Intn(1000)
			orig[i] = keys[i]
			perm[i] = i
		}
		sk, sp := make([]int, n), make([]int, n)
		mergeSort(keys, perm, sk, sp)
		for i := 1; i < n; i++ {
			if keys[i-1] > keys[i] {
				t.Fatal("not sorted")
			}
		}
		// perm must map sorted positions back to original values.
		for i := range keys {
			if orig[perm[i]] != keys[i] {
				t.Fatal("permutation inconsistent with sort")
			}
		}
	}
}

// mass returns ∫H dA over the mesh in fine-cell units.
func mass(c *CLAMR) float64 {
	total := 0.0
	n := c.ncell.Load()
	for idx := 0; idx < n; idx++ {
		size := 1 << (c.cfg.MaxLevel - c.clev.Data[idx])
		total += float64(c.h.Data[idx] * float64(size*size))
	}
	return total
}

func TestCLAMRMassConservedByRemesh(t *testing.T) {
	// Refinement copies parent state to children; coarsening averages.
	// Both preserve ∫H dA exactly, so mass drift can come only from the
	// physics flux (bounded) — check total mass stays within a few percent.
	c := small()
	r, _ := bench.NewRunner(c)
	_ = r
	c.Reset()
	initial := mass(c)
	runner, _ := bench.NewRunner(c)
	res := runner.RunGolden()
	if res.Status != bench.Completed {
		t.Fatal(res.Status)
	}
	final := mass(c)
	drift := math.Abs(final-initial) / initial
	if drift > 0.05 {
		t.Fatalf("mass drifted %.2f%% (%.1f → %.1f)", 100*drift, initial, final)
	}
}

func TestCLAMRSortFramesLiveOnlyDuringSortTick(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	regions := func(tick int) map[state.Region]bool {
		seen := map[state.Region]bool{}
		r.RunInjected(tick, func() {
			for _, s := range c.Registry().Live() {
				seen[s.Region()] = true
			}
		})
		return seen
	}
	atSort := regions(4 * 3) // step 3, sort tick
	if !atSort["mesh.sort"] || atSort["mesh.tree"] {
		t.Fatalf("sort tick regions: %v", atSort)
	}
	atTree := regions(4*3 + 1)
	if !atTree["mesh.tree"] || atTree["mesh.sort"] {
		t.Fatalf("tree tick regions: %v", atTree)
	}
	atPhysics := regions(4*3 + 2)
	if atPhysics["mesh.tree"] || atPhysics["mesh.sort"] {
		t.Fatalf("physics tick regions: %v", atPhysics)
	}
}

func TestCLAMRSortPermCorruptionCrashesOrCorrupts(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	rng := stats.NewRNG(5)
	harmful := 0
	for trial := 0; trial < 20; trial++ {
		res := r.RunInjected(4*2, func() { // a sort tick
			for _, s := range c.Registry().Live() {
				if s.Name() == "sortPerm" {
					s.Corrupt(rng, fault.Random)
					return
				}
			}
		})
		if res.Status != bench.Completed || !bench.CompareExact(r.Golden, res.Output) {
			harmful++
		}
	}
	// Paper: Sort is the most critical region (39% SDC + 43% DUE ≈ 82%).
	if harmful < 10 {
		t.Fatalf("sortPerm corruption harmful in only %d/20 trials", harmful)
	}
}

func TestCLAMRTreeChildCorruptionAborts(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	rng := stats.NewRNG(7)
	crashed := 0
	for trial := 0; trial < 20; trial++ {
		res := r.RunInjected(4*2+1, func() { // a tree tick
			for _, s := range c.Registry().Live() {
				if s.Name() == "qtChild" {
					s.Corrupt(rng, fault.Random)
					return
				}
			}
		})
		if res.Status == bench.Crashed {
			crashed++
		}
	}
	// Paper: Tree faults are DUE-heavy (41% DUE vs 20% SDC). Many
	// injections land in unused node slots (masked), but the harmful ones
	// should be crashes.
	if crashed == 0 {
		t.Fatal("qtChild corruption never aborted in 20 trials")
	}
}

func TestCLAMRStepEndCorruptionHangs(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	res := r.RunInjected(6, func() { c.stepEnd.Store(1 << 40) })
	if res.Status != bench.Hung {
		t.Fatalf("status %v, want Hung", res.Status)
	}
}

func TestCLAMRHCorruptionSpreads(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	res := r.RunInjected(4*2+2, func() {
		n := c.ncell.Load()
		c.h.Data[n/2] += 5
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
	if bad < 10 {
		t.Fatalf("height corruption affected only %d fine cells", bad)
	}
}

func TestCLAMRResetRestores(t *testing.T) {
	c := small()
	r, _ := bench.NewRunner(c)
	rng := stats.NewRNG(11)
	r.RunInjected(9, func() { c.h.CorruptElem(rng, fault.Random, 12) })
	res := r.RunGolden()
	if !bench.CompareExact(r.Golden, res.Output) {
		t.Fatal("Reset did not restore")
	}
}

func TestCLAMRRegistered(t *testing.T) {
	b, err := bench.New("CLAMR", 9)
	if err != nil {
		t.Fatal(err)
	}
	if b.Class() != bench.AMR || b.Windows() != 9 {
		t.Fatal("metadata")
	}
}

func TestCLAMRBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Base: 7, MaxLevel: 2, Steps: 5, Workers: 1},
		{Base: 8, MaxLevel: 0, Steps: 5, Workers: 1},
		{Base: 8, MaxLevel: 2, Steps: 0, Workers: 1},
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
