package fleet

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/state"
)

// quickSweep is the small grid the determinism and JSON tests share:
// three benchmarks × two fault models at a few dozen injections per cell.
// Short mode shrinks the cells further — the properties under test
// (grid order, seeds, determinism, round-trip) are size-independent, and
// the race job runs these fixtures under ~100x instrumentation cost.
func quickSweep() Sweep {
	n := 30
	if testing.Short() {
		n = 10
	}
	return Sweep{
		Benchmarks: []string{"DGEMM", "LUD", "NW"},
		Models:     []fault.Model{fault.Single, fault.Zero},
		N:          n,
		Seed:       97,
		BenchSeed:  1,
		Workers:    4,
	}
}

func TestSweepDeterministicAcrossRuns(t *testing.T) {
	a, err := quickSweep().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := quickSweep().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical sweeps produced different results")
	}
	// The pool size must not be part of the result identity.
	serial := quickSweep()
	serial.Workers = 1
	c, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cells, c.Cells) {
		t.Fatal("cell results depend on pool size")
	}
}

func TestSweepGrid(t *testing.T) {
	s := quickSweep()
	cells := s.Cells()
	if len(cells) != 6 {
		t.Fatalf("grid has %d cells, want 6", len(cells))
	}
	seeds := map[uint64]bool{}
	for _, c := range cells {
		if seeds[c.Seed] {
			t.Fatalf("duplicate cell seed %d", c.Seed)
		}
		seeds[c.Seed] = true
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cells {
		if c.CellSpec != cells[i] {
			t.Fatalf("cell %d out of grid order: %+v vs %+v", i, c.CellSpec, cells[i])
		}
		if got := c.Result.Outcomes.Total(); got != s.N {
			t.Fatalf("cell %d completed %d of %d injections", i, got, s.N)
		}
		// Single-model cells must tally everything under their own model.
		if got := c.Result.ByModel[c.Model].Total(); got != s.N {
			t.Fatalf("cell %d has %d injections under its model", i, got)
		}
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	res, err := quickSweep().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("sweep changed across JSON round-trip:\n%+v\n%+v", res, back)
	}
}

func TestSweepMerged(t *testing.T) {
	s := quickSweep()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	merged := res.MergedFor(state.ByFrameThenVariable)
	if len(merged) != len(s.Benchmarks) {
		t.Fatalf("merged %d benchmarks, want %d", len(merged), len(s.Benchmarks))
	}
	for _, name := range s.Benchmarks {
		m := merged[name]
		if m == nil {
			t.Fatalf("benchmark %s missing from merge", name)
		}
		want := s.N * len(s.Models)
		if m.Outcomes.Total() != want || m.N != want {
			t.Fatalf("%s merged %d injections, want %d", name, m.Outcomes.Total(), want)
		}
		for _, mod := range s.Models {
			if m.ByModel[mod].Total() != s.N {
				t.Fatalf("%s model %s merged %d, want %d", name, mod, m.ByModel[mod].Total(), s.N)
			}
		}
		windowTotal := 0
		for _, w := range m.ByWindow {
			windowTotal += w.Total()
		}
		if windowTotal != want {
			t.Fatalf("%s window partition sums to %d, want %d", name, windowTotal, want)
		}
		if m.FiredShare.N != want {
			t.Fatalf("%s fired share over %d, want %d", name, m.FiredShare.N, want)
		}
	}
}

// TestSweepMergedFor: each policy arm merges apart from the other, and an
// arm's per-benchmark result is exactly the fold of the records its cells
// handed the sweep's ObserveInjection hook.
func TestSweepMergedFor(t *testing.T) {
	var (
		mu   sync.Mutex
		recs []core.InjectionRecord
	)
	s := Sweep{
		Benchmarks: []string{"DGEMM", "LUD"},
		Models:     []fault.Model{fault.Single, fault.Zero},
		Policies:   []state.Policy{state.ByFrameThenVariable, state.ByBytes},
		N:          20,
		Seed:       5,
		BenchSeed:  1,
		Workers:    2,
		ObserveInjection: func(rec core.InjectionRecord) {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		},
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range s.Policies {
		merged := res.MergedFor(policy)
		if len(merged) != len(s.Benchmarks) {
			t.Fatalf("%v: merged %d benchmarks, want %d", policy, len(merged), len(s.Benchmarks))
		}
		for _, name := range s.Benchmarks {
			arm := merged[name]
			if arm.Outcomes.Total() != 40 || arm.N != 40 || arm.Policy != policy {
				t.Fatalf("%v/%s: %d injections under %v, want 40", policy, name, arm.N, arm.Policy)
			}
			folded := core.NewCampaignResult(name, policy, 0, arm.Windows)
			for _, rec := range recs {
				if rec.Benchmark == name && rec.PolicyOf() == policy {
					folded.Fold(rec)
				}
			}
			if !reflect.DeepEqual(arm, folded) {
				t.Fatalf("%v/%s: merged %+v, its records fold to %+v", policy, name, arm, folded)
			}
		}
	}
}

// beamSweep is the small mixed grid the beam-cell tests share: injection
// cells and beam cells (two benchmarks × ECC ablation) on one pool. Short
// mode shrinks it for the race job, like quickSweep.
func beamSweep() Sweep {
	n, runs := 20, 150
	if testing.Short() {
		n, runs = 10, 50
	}
	return Sweep{
		Benchmarks:      []string{"DGEMM"},
		Models:          []fault.Model{fault.Single},
		N:               n,
		BeamRuns:        runs,
		BeamBenchmarks:  []string{"DGEMM", "LUD"},
		BeamECCAblation: true,
		Seed:            1701,
		BenchSeed:       1,
		Workers:         4,
	}
}

func TestSweepBeamGrid(t *testing.T) {
	s := beamSweep()
	cells := s.BeamCells()
	if len(cells) != 4 { // 2 benchmarks × 1 device × 2 ECC arms
		t.Fatalf("beam grid has %d cells, want 4", len(cells))
	}
	seeds := map[uint64]bool{}
	for _, c := range s.Cells() {
		seeds[c.Seed] = true
	}
	for _, c := range cells {
		if c.Device != "KNC3120A" {
			t.Fatalf("default device %q", c.Device)
		}
		if seeds[c.Seed] {
			t.Fatalf("beam cell seed %d collides with another cell", c.Seed)
		}
		seeds[c.Seed] = true
	}
	// Protected arm enumerates before the ablation arm.
	if cells[0].DisableECC || !cells[1].DisableECC {
		t.Fatalf("arm order: %+v", cells[:2])
	}
}

// TestSweepMixedPool is the acceptance shape for the unified fleet: beam
// and injection cells execute on one shared pool, both land in grid order,
// and both round-trip through the sweep JSON.
func TestSweepMixedPool(t *testing.T) {
	s := beamSweep()
	var calls int
	s.Progress = func(done, total int) {
		calls++
		if total != 5 || done != calls { // 1 injection cell + 4 beam cells
			t.Errorf("progress call %d reports (%d, %d), want (%d, 5)", calls, done, total, calls)
		}
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("progress reported %d cells, want 5", calls)
	}
	if len(res.Cells) != 1 || len(res.BeamCells) != 4 {
		t.Fatalf("got %d injection and %d beam cells", len(res.Cells), len(res.BeamCells))
	}
	specs := s.BeamCells()
	for i, c := range res.BeamCells {
		if c.BeamCellSpec != specs[i] {
			t.Fatalf("beam cell %d out of grid order: %+v vs %+v", i, c.BeamCellSpec, specs[i])
		}
		if c.Result.Runs != s.BeamRuns {
			t.Fatalf("beam cell %d completed %d of %d runs", i, c.Result.Runs, s.BeamRuns)
		}
		if c.Result.ECCDisabled != c.DisableECC {
			t.Fatalf("beam cell %d arm mislabelled", i)
		}
	}
	// The ablation arm must show the A2 signature: no MCA DUEs, more SDCs.
	on := res.BeamFor("KNC3120A", false)
	off := res.BeamFor("KNC3120A", true)
	for _, name := range []string{"DGEMM", "LUD"} {
		if off[name].Outcomes.DUEMCA != 0 {
			t.Fatalf("%s: MCA DUEs with ECC disabled", name)
		}
		if off[name].Outcomes.SDC <= on[name].Outcomes.SDC {
			t.Fatalf("%s: ablation did not raise SDCs (%d vs %d)",
				name, off[name].Outcomes.SDC, on[name].Outcomes.SDC)
		}
	}
	if arms := res.BeamArms(); len(arms) != 2 || arms[0].DisableECC || !arms[1].DisableECC {
		t.Fatalf("arms: %+v", res.BeamArms())
	}
}

func TestSweepBeamDeterministicAcrossPoolSize(t *testing.T) {
	run := func(workers int) *SweepResult {
		s := beamSweep()
		s.Workers = workers
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a.BeamCells, b.BeamCells) {
		t.Fatal("beam cell results depend on pool size")
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatal("injection cell results depend on pool size")
	}
}

func TestSweepBeamJSONRoundTrip(t *testing.T) {
	res, err := beamSweep().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("mixed sweep changed across JSON round-trip:\n%+v\n%+v", res, back)
	}
}

func TestSweepBeamOnly(t *testing.T) {
	s := Sweep{BeamRuns: 150, BeamBenchmarks: []string{"DGEMM"}, Seed: 7, BenchSeed: 1, Workers: 2}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 0 || len(res.BeamCells) != 1 {
		t.Fatalf("beam-only sweep produced %d/%d cells", len(res.Cells), len(res.BeamCells))
	}
	if res.BeamCells[0].Result.Outcomes.Total() != 150 {
		t.Fatal("beam cell incomplete")
	}
	// The default beam grid covers every profiled benchmark.
	all := Sweep{BeamRuns: 1}.BeamCells()
	if len(all) != 6 {
		t.Fatalf("default beam grid has %d cells, want 6 profiled benchmarks", len(all))
	}
}

func TestSweepBeamValidation(t *testing.T) {
	if _, err := (Sweep{}).Run(context.Background()); err == nil {
		t.Fatal("accepted empty sweep")
	}
	s := Sweep{BeamRuns: 10, BeamBenchmarks: []string{"Ghost"}}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("accepted unknown beam benchmark")
	}
	s = Sweep{BeamRuns: 10, BeamBenchmarks: []string{"DGEMM"}, BeamDevices: []string{"Cray-1"}}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("accepted unknown device")
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := quickSweep().Run(ctx); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
}

func TestSweepValidation(t *testing.T) {
	s := quickSweep()
	s.N = 0
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("accepted N=0")
	}
	s = quickSweep()
	s.Benchmarks = []string{"Ghost"}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
}

// TestSweepFullQuickScale runs the paper's full grid — every registered
// benchmark × all four fault models — through one shared pool, the
// acceptance shape for the fleet orchestrator.
func TestSweepFullQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Sweep{N: 16, Seed: 1701, BenchSeed: 1, Workers: 8}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(res.Spec.Benchmarks) * len(fault.Models)
	if len(res.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(res.Cells), wantCells)
	}
	if res.Spec.Policies[0] != state.ByFrameThenVariable {
		t.Fatalf("default policy %v", res.Spec.Policies[0])
	}
	for _, c := range res.Cells {
		if c.Result.Outcomes.Total() != s.N {
			t.Fatalf("cell %s/%s completed %d of %d", c.Benchmark, c.Model, c.Result.Outcomes.Total(), s.N)
		}
	}
	merged := res.MergedFor(state.ByFrameThenVariable)
	for name, m := range merged {
		if m.Outcomes.Total() != s.N*len(fault.Models) {
			t.Fatalf("%s merged %d", name, m.Outcomes.Total())
		}
	}
}
