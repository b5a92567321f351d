package fleet

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
)

// brokenBench crashes in its golden run, which fails the cell that built it.
type brokenBench struct{ bench.Benchmark }

func (brokenBench) Run(*bench.Ctx) { panic("broken on purpose") }

// registerCounted registers, for the length of the test, DGEMM and NW again
// under names whose constructor counts its calls — a count of benchmark
// constructions, and so of golden runs, taken outside the runner list — and
// one benchmark whose golden run crashes.
func registerCounted(t *testing.T) *atomic.Int64 {
	var built atomic.Int64
	for name, real := range map[string]string{"counted-DGEMM": "DGEMM", "counted-NW": "NW", "counted-broken": "DGEMM"} {
		bench.Register(name, func(seed uint64) bench.Benchmark {
			built.Add(1)
			b, err := bench.New(real, seed)
			if err != nil {
				panic(err)
			}
			if name == "counted-broken" {
				return brokenBench{b}
			}
			return b
		})
		t.Cleanup(func() { bench.Unregister(name) })
	}
	return &built
}

// captureRunners collects every runner list the sweeps of this test create.
func captureRunners(t *testing.T) *[]*bench.Runners {
	var lists []*bench.Runners
	testHookRunners = func(rs *bench.Runners) { lists = append(lists, rs) }
	t.Cleanup(func() { testHookRunners = nil })
	return &lists
}

// countedSweep is 16 injection cells over two distinct (benchmark,
// benchSeed) keys on a pool of four.
func countedSweep() Sweep {
	return Sweep{
		Benchmarks: []string{"counted-DGEMM", "counted-NW"},
		Models:     fault.Models,
		Policies:   []state.Policy{state.ByFrameThenVariable, state.ByVariable},
		N:          8,
		Seed:       4242,
		BenchSeed:  1,
		Workers:    4,
	}
}

// TestRunnersGoldenRunCount: a run builds at most Workers runners per
// distinct (benchmark, benchSeed) however many cells and checkpoint chunks
// it has, on one list per run, and that list is empty when the run returns —
// finished, killed or resumed.
func TestRunnersGoldenRunCount(t *testing.T) {
	built := registerCounted(t)
	lists := captureRunners(t)
	s := countedSweep()
	plan := mustPlan(t, s, 0, 1)
	const bound = 4 * 2 // Workers × distinct keys; the grid has 16 cells
	dir := t.TempDir()

	// run executes f and checks the construction bound, that f's sweep ran
	// on exactly one list and that the list is empty afterwards.
	run := func(label string, f func() (*SweepResult, error)) (*SweepResult, error) {
		t.Helper()
		before, listsBefore := built.Load(), len(*lists)
		res, err := f()
		if n := built.Load() - before; n > bound || n == 0 {
			t.Errorf("%s: built %d runners, want 1..%d", label, n, bound)
		}
		if n := len(*lists) - listsBefore; n != 1 {
			t.Fatalf("%s: the run created %d runner lists, want 1", label, n)
		}
		if idle := (*lists)[len(*lists)-1].Idle(); idle != 0 {
			t.Errorf("%s: the list still holds %d runners after the run returned", label, idle)
		}
		return res, err
	}

	mono, err := run("RunPlan", func() (*SweepResult, error) { return s.RunPlan(context.Background(), plan) })
	if err != nil {
		t.Fatal(err)
	}
	monoJSON := artifactJSON(t, mono)

	for label, every := range map[string]int{"1 chunk": s.N, "8 chunks": 1} {
		res, err := run("RunPlanCheckpointed, "+label, func() (*SweepResult, error) {
			return s.RunPlanCheckpointed(context.Background(), plan, Checkpoint{
				Out: filepath.Join(dir, "ck-"+label+".json"), Every: every,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
			t.Fatalf("%s: artifact differs from RunPlan's", label)
		}
	}

	// Killed after the third of seven checkpoints, then resumed: each
	// process is one run with one list.
	ckPath := filepath.Join(dir, "ck-kill.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed := 0
	if _, err := run("killed run", func() (*SweepResult, error) {
		return s.RunPlanCheckpointed(ctx, plan, Checkpoint{Out: ckPath, Every: 1, OnCheckpoint: func(ShardPlan) {
			if landed++; landed == 3 {
				cancel()
			}
		}})
	}); err == nil {
		t.Fatal("killed run reported success")
	}
	res, err := run("resumed run", func() (*SweepResult, error) {
		return s.RunPlanCheckpointed(context.Background(), plan, Checkpoint{Out: ckPath, Every: 1, Resume: ckPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
		t.Fatal("resumed artifact differs from RunPlan's")
	}

	// A cell whose golden run fails ends the run; nothing stays behind.
	broken := s
	broken.Benchmarks = []string{"counted-DGEMM", "counted-broken"}
	if _, err := run("failed cell", func() (*SweepResult, error) { return broken.Run(context.Background()) }); err == nil || !strings.Contains(err.Error(), "counted-broken") {
		t.Fatalf("a sweep with a broken benchmark returned %v", err)
	}
}

// TestRunnersRetentionFollowsDemand: the list keeps a runner only while a
// later cell job is declared for its key. On a pool of one the grid is
// walked in order, so between cells the list holds exactly the one runner
// the next cell of the same benchmark will take — across the boundary from
// injection to beam cells and from one checkpoint chunk to the next — and
// holds none once a benchmark's last job has been served. That is read
// inside the run, before the owner empties the list.
func TestRunnersRetentionFollowsDemand(t *testing.T) {
	lists := captureRunners(t)
	s := Sweep{
		Benchmarks:      []string{"DGEMM", "NW"},
		Models:          []fault.Model{fault.Single, fault.Zero},
		N:               4,
		BeamRuns:        4,
		BeamBenchmarks:  []string{"DGEMM", "NW"},
		BeamECCAblation: true,
		Seed:            7,
		BenchSeed:       1,
		Workers:         1,
	}
	// Job order within a pass over the grid: DGEMM×2, NW×2 injection cells,
	// then DGEMM×2, NW×2 beam cells. A kernel's runner is built by its first
	// job, stays while any job of any later chunk is declared for it, and
	// goes with its last beam cell of the last chunk.
	first := []int{1, 1, 2, 2, 2, 2, 2, 2}
	last := []int{2, 2, 2, 2, 2, 1, 1, 0}
	seen := 0
	check := func(wantIdle []int) func(done, total int) {
		return func(done, total int) {
			seen++
			if total != len(wantIdle) {
				t.Fatalf("the run has %d cell jobs, want %d", total, len(wantIdle))
			}
			rs := (*lists)[len(*lists)-1]
			if got := rs.Idle(); got != wantIdle[done-1] {
				t.Errorf("after cell job %d of %d the list holds %d runners, want %d", done, total, got, wantIdle[done-1])
			}
		}
	}
	s.Progress = check([]int{1, 1, 2, 2, 2, 1, 1, 0})
	mono, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	plan := mustPlan(t, s, 0, 1)
	chunked := append([]int(nil), first...)
	for i := 0; i < 16; i++ { // the two middle chunks
		chunked = append(chunked, 2)
	}
	s.Progress = check(append(chunked, last...))
	res, err := s.RunPlanCheckpointed(context.Background(), plan, Checkpoint{Out: filepath.Join(t.TempDir(), "ck.json"), Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 8+32 {
		t.Fatalf("checked the list after %d cell jobs, want %d", seen, 8+32)
	}
	res.Shard = nil
	if !bytes.Equal(artifactJSON(t, mono), artifactJSON(t, res)) {
		t.Fatal("chunked run on shared runners differs from the monolithic run")
	}
}
