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

// goldenCounted counts its kernel's golden runs: the runs that inject
// nothing. Every trial that runs the kernel injects.
type goldenCounted struct {
	bench.Benchmark
	runs *atomic.Int64
}

func (g goldenCounted) Run(ctx *bench.Ctx) {
	defer func() {
		if !ctx.Injected() {
			g.runs.Add(1)
		}
	}()
	g.Benchmark.Run(ctx)
}

// registerCounted registers, for the length of the test, DGEMM and NW again
// under names whose golden runs are counted, by name, and one benchmark
// whose golden run crashes. Registering drops a name's resident keys, so the
// names start from an empty set; forget registers them again, which empties
// it again.
func registerCounted(t *testing.T) (golden map[string]*atomic.Int64, forget func()) {
	golden = map[string]*atomic.Int64{}
	constructors := map[string]bench.Constructor{}
	for name, real := range map[string]string{"counted-DGEMM": "DGEMM", "counted-NW": "NW", "counted-broken": "DGEMM"} {
		runs := new(atomic.Int64)
		golden[name] = runs
		constructors[name] = func(seed uint64) bench.Benchmark {
			b, err := bench.New(real, seed)
			if err != nil {
				panic(err)
			}
			if name == "counted-broken" {
				b = brokenBench{b}
			}
			return goldenCounted{b, runs}
		}
		bench.Register(name, constructors[name])
		t.Cleanup(func() { bench.Unregister(name) })
	}
	forget = func() {
		for name, c := range constructors {
			bench.Unregister(name)
			bench.Register(name, c)
		}
	}
	return golden, forget
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

// TestRunnersGoldenRunCount: a process makes exactly one kernel run per
// distinct (benchmark, benchSeed), however many cells, pool workers and
// checkpoint chunks its runs have: the first run of a key makes it, and a
// later run in the same process — the same plan again, or a checkpointed
// run resumed — makes none. Every run has one list, which is empty when the
// run returns — finished, killed or resumed. A key whose one run fails
// fails the run after that one run, and the next run of the key runs it
// again.
func TestRunnersGoldenRunCount(t *testing.T) {
	golden, forget := registerCounted(t)
	lists := captureRunners(t)
	s := countedSweep()
	plan := mustPlan(t, s, 0, 1)
	dir := t.TempDir()
	counts := func() map[string]int64 {
		m := map[string]int64{}
		for name, n := range golden {
			m[name] = n.Load()
		}
		return m
	}

	// run executes f and checks that it ran each key's kernel want times,
	// that its sweep ran on exactly one list and that the list is empty
	// afterwards.
	run := func(label string, want int64, f func() (*SweepResult, error), keys ...string) (*SweepResult, error) {
		t.Helper()
		before, listsBefore := counts(), len(*lists)
		res, err := f()
		for _, key := range keys {
			if n := golden[key].Load() - before[key]; n != want {
				t.Errorf("%s: %d golden runs of %s on a pool of %d, want %d", label, n, key, s.Workers, want)
			}
		}
		if n := len(*lists) - listsBefore; n != 1 {
			t.Fatalf("%s: the run created %d runner lists, want 1", label, n)
		}
		if idle := (*lists)[len(*lists)-1].Idle(); idle != 0 {
			t.Errorf("%s: the list still holds %d runners after the run returned", label, idle)
		}
		return res, err
	}

	keys := []string{"counted-DGEMM", "counted-NW"}
	runPlan := func() (*SweepResult, error) { return s.RunPlan(context.Background(), plan) }
	mono, err := run("RunPlan", 1, runPlan, keys...)
	if err != nil {
		t.Fatal(err)
	}
	monoJSON := artifactJSON(t, mono)
	again, err := run("RunPlan again", 0, runPlan, keys...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, again)) {
		t.Fatal("a run on resident keys differs from the run that built them")
	}

	for label, every := range map[string]int{"1 chunk": s.N, "8 chunks": 1} {
		forget()
		res, err := run("RunPlanCheckpointed, "+label, 1, func() (*SweepResult, error) {
			return s.RunPlanCheckpointed(context.Background(), plan, Checkpoint{
				Out: filepath.Join(dir, "ck-"+label+".json"), Every: every,
			})
		}, keys...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
			t.Fatalf("%s: artifact differs from RunPlan's", label)
		}
	}

	// Killed after the third of seven checkpoints, then resumed in the same
	// process: each is one run with one list, and the resumed one adopts
	// the keys the killed one built.
	forget()
	ckPath := filepath.Join(dir, "ck-kill.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed := 0
	if _, err := run("killed run", 1, func() (*SweepResult, error) {
		return s.RunPlanCheckpointed(ctx, plan, Checkpoint{Out: ckPath, Every: 1, OnCheckpoint: func(ShardPlan) {
			if landed++; landed == 3 {
				cancel()
			}
		}})
	}, keys...); err == nil {
		t.Fatal("killed run reported success")
	}
	res, err := run("resumed run", 0, func() (*SweepResult, error) {
		bank, rest, err := LoadCheckpoint(ckPath, s, plan)
		if err != nil {
			return nil, err
		}
		tail, err := s.RunPlanCheckpointed(context.Background(), rest, Checkpoint{Out: ckPath, Every: 1})
		if err != nil {
			return nil, err
		}
		return MergeShardPartials(plan, bank, tail)
	}, keys...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
		t.Fatal("resumed artifact differs from RunPlan's")
	}

	// A cell whose golden run fails ends the run; the other cells of its
	// key take the error without running, and nothing stays behind — not
	// even the failed key, which the next run runs again.
	broken := s
	broken.Benchmarks = []string{"counted-DGEMM", "counted-broken"}
	for _, label := range []string{"failed cell", "failed cell again"} {
		if _, err := run(label, 1, func() (*SweepResult, error) { return broken.Run(context.Background()) }, "counted-broken"); err == nil || !strings.Contains(err.Error(), "counted-broken") {
			t.Fatalf("%s: a sweep with a broken benchmark returned %v", label, err)
		}
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
