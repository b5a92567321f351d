package bench

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"phirel/internal/state"
	"phirel/internal/stats"
)

// registerCountedToy registers the toy under "counted-toy" for the length
// of the test, with a constructor that counts its calls.
func registerCountedToy(t *testing.T) *atomic.Int64 {
	var built atomic.Int64
	Register("counted-toy", func(uint64) Benchmark {
		built.Add(1)
		return newToy()
	})
	t.Cleanup(func() { Unregister("counted-toy") })
	return &built
}

func TestRunnersDemandRule(t *testing.T) {
	built := registerCountedToy(t)

	rs := NewRunners()
	for i := 0; i < 3; i++ {
		rs.Expect("counted-toy", 1)
	}
	a, err := rs.Get("counted-toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs.Get("counted-toy", 1) // a is out, so this one is built too
	if err != nil {
		t.Fatal(err)
	}
	if a == b || built.Load() != 2 {
		t.Fatalf("two concurrent holders share a runner or built %d, want 2", built.Load())
	}
	rs.Put(a)
	rs.Put(b)
	if rs.Idle() != 2 {
		t.Fatalf("idle = %d with demand left, want 2", rs.Idle())
	}
	// Another seed is another key: its Get must not take the idle runners.
	other, err := rs.Get("counted-toy", 2)
	if err != nil {
		t.Fatal(err)
	}
	if other == a || other == b || rs.Idle() != 2 {
		t.Fatal("a different benchSeed was served from this key's runners")
	}
	rs.Put(other) // undeclared key: dropped
	if rs.Idle() != 2 {
		t.Fatalf("idle = %d after putting back an undeclared key's runner, want 2", rs.Idle())
	}

	// The last declared Get takes one idle runner and drops the rest; its
	// own Put then finds no demand and drops too.
	c, err := rs.Get("counted-toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != a && c != b {
		t.Fatal("an idle runner was not reused")
	}
	if rs.Idle() != 0 {
		t.Fatalf("idle = %d once the last demand was taken, want 0", rs.Idle())
	}
	rs.Put(c)
	if rs.Idle() != 0 {
		t.Fatalf("idle = %d after the last Put, want 0", rs.Idle())
	}
	if got := built.Load(); got != 3 {
		t.Fatalf("built %d runners, want 3", got)
	}

	// Close forgets unserved demand: what is idle goes, what comes back is
	// dropped.
	for i := 0; i < 3; i++ {
		rs.Expect("counted-toy", 1)
	}
	d, _ := rs.Get("counted-toy", 1)
	e, _ := rs.Get("counted-toy", 1)
	rs.Put(d)
	if rs.Idle() != 1 {
		t.Fatalf("idle = %d with one Get still declared, want 1", rs.Idle())
	}
	rs.Close()
	if rs.Idle() != 0 {
		t.Fatalf("idle = %d after Close, want 0", rs.Idle())
	}
	rs.Put(e)
	if rs.Idle() != 0 {
		t.Fatalf("idle = %d after a Put that follows Close, want 0", rs.Idle())
	}
}

func TestRunnersNilListBuildsAndDrops(t *testing.T) {
	built := registerCountedToy(t)
	var rs *Runners
	loan := rs.Loan("counted-toy", 1)
	a, err := loan.Get()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loan.Get()
	if err != nil {
		t.Fatal(err)
	}
	loan.Return()
	if a == b || built.Load() != 2 {
		t.Fatal("the nil list did not build a fresh runner per Get")
	}
	if _, err := rs.Get("no-such-benchmark", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestRunnersConcurrentLoans is the shape a sweep run gives the list: more
// cell jobs than pool workers, every job borrowing and returning once.
func TestRunnersConcurrentLoans(t *testing.T) {
	built := registerCountedToy(t)
	const workers, jobs = 4, 40
	rs := NewRunners()
	for i := 0; i < jobs; i++ {
		rs.Expect("counted-toy", 7)
	}
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobCh {
				loan := rs.Loan("counted-toy", 7)
				r, err := loan.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if res := r.RunGolden(); !CompareExact(r.Golden, res.Output) {
					t.Error("a borrowed runner's golden re-run differs")
				}
				loan.Return()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()
	if got := built.Load(); got > workers {
		t.Fatalf("built %d runners for %d workers", got, workers)
	}
	if rs.Idle() != 0 {
		t.Fatalf("idle = %d after the declared demand was served, want 0", rs.Idle())
	}
}

// runCountedToy counts the kernel runs of its toy.
type runCountedToy struct {
	*toy
	runs *atomic.Int64
}

func (c runCountedToy) Run(ctx *Ctx) {
	c.runs.Add(1)
	c.toy.Run(ctx)
}

// TestRunnersConcurrentFirstUse: two pool workers that miss a key at the
// same time each build a runner, but the key runs its kernel once: one
// performs the run, the other waits for it and adopts its golden run, resume
// points and horizon. Both then plan at once — as an injection trial
// (Victim) or as a beam strike (LiveAt) — without running anything more. A
// standalone runner makes its own one run and shares with nobody.
func TestRunnersConcurrentFirstUse(t *testing.T) {
	for _, leg := range []struct {
		name string
		ask  func(r *Runner, i int) bool
	}{
		{"injection", func(r *Runner, i int) bool {
			_, ok := r.Victim(3, stats.NewRNG(uint64(i)), state.ByVariable)
			return ok
		}},
		{"beam", func(r *Runner, _ int) bool { return len(r.LiveAt(3)) > 0 }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			ForgetKeys()
			runs := registerRunCountedToy(t, "run-counted-toy", 0)

			rs := NewRunners()
			const workers = 2
			for i := 0; i < workers; i++ {
				rs.Expect("run-counted-toy", 1)
			}
			var (
				got   [workers]*Runner
				start = make(chan struct{})
				wg    sync.WaitGroup
			)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					r, err := rs.Get("run-counted-toy", 1)
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = r
					if !leg.ask(r, i) {
						t.Error("nothing live at a tick with live sites")
					}
				}()
			}
			close(start)
			wg.Wait()
			if t.Failed() {
				return
			}
			if got[0] == got[1] {
				t.Fatal("two holders share a runner")
			}
			if n := runs.Load(); n != 1 {
				t.Errorf("%d kernel runs for %d runners of one key, want 1", n, workers)
			}
			a, b := got[0], got[1]
			if a.sh != b.sh || a.B == b.B || a.TotalTicks != b.TotalTicks || a.GoldenWork != b.GoldenWork || a.budget != b.budget || !CompareExact(a.Golden, b.Golden) {
				t.Error("two runners of one key hold their own key state or differ in what they adopted")
			}
			alone, err := (*Runners)(nil).Get("run-counted-toy", 1)
			if err != nil {
				t.Fatal(err)
			}
			if alone.sh == a.sh || runs.Load() != 2 {
				t.Errorf("a standalone runner took the list's key state, or %d kernel runs are not its one run more", runs.Load())
			}
		})
	}
}

// registerRunCountedToy registers the toy under name for the length of the
// test, counting its kernel runs; the run numbered failRun (from 1) panics.
func registerRunCountedToy(t *testing.T, name string, failRun int64) *atomic.Int64 {
	var runs atomic.Int64
	Register(name, func(uint64) Benchmark { return failingToy{runCountedToy{newToy(), &runs}, failRun} })
	t.Cleanup(func() { Unregister(name) })
	return &runs
}

type failingToy struct {
	runCountedToy
	failRun int64
}

func (f failingToy) Run(ctx *Ctx) {
	f.runCountedToy.Run(ctx)
	if f.runs.Load() == f.failRun {
		panic("failing on purpose")
	}
}

// useKey is one run of a key: a list of its own that declares the key
// once, takes its runner and closes.
func useKey(t *testing.T, name string, seed uint64) (*Runner, error) {
	t.Helper()
	rs := NewRunners()
	defer rs.Close()
	rs.Expect(name, seed)
	return rs.Get(name, seed)
}

// TestResidentKeysOneRunPerProcess: the lists of one key, used one after
// the other or at once, make the key's one kernel run between them and
// share its state; a standalone runner still makes its own.
func TestResidentKeysOneRunPerProcess(t *testing.T) {
	ForgetKeys()
	runs := registerRunCountedToy(t, "resident-toy", 0)

	a, err := useKey(t, "resident-toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := useKey(t, "resident-toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 || a.sh != b.sh {
		t.Fatalf("two lists used one after the other made %d kernel runs (want 1) or hold their own key state", n)
	}

	// Two lists that declare a key before either takes a runner, and take
	// them at once.
	lists := [2]*Runners{NewRunners(), NewRunners()}
	for _, rs := range lists {
		rs.Expect("resident-toy", 2)
		defer rs.Close()
	}
	var (
		got [2]*Runner
		wg  sync.WaitGroup
	)
	for i, rs := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := rs.Get("resident-toy", 2)
			if err != nil {
				t.Error(err)
			}
			got[i] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := runs.Load(); n != 2 || got[0].sh != got[1].sh || got[0].sh == a.sh {
		t.Fatalf("two lists used at once made %d kernel runs in all (want 2), or share the wrong key state", n)
	}

	alone, err := (*Runners)(nil).Get("resident-toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if alone.sh == a.sh || runs.Load() != 3 {
		t.Fatalf("a standalone runner adopted the resident key state, or %d kernel runs are not its one run more", runs.Load())
	}
}

// TestResidentKeysEvictLeastRecentlyUsed: the set holds residentKeys keys.
// The next distinct key evicts the one used least recently, which its next
// use builds again, and a use keeps a key.
func TestResidentKeysEvictLeastRecentlyUsed(t *testing.T) {
	ForgetKeys()
	runs := registerRunCountedToy(t, "resident-toy", 0)
	use := func(seed uint64, wantRuns int64) {
		t.Helper()
		before := runs.Load()
		if _, err := useKey(t, "resident-toy", seed); err != nil {
			t.Fatal(err)
		}
		if n := runs.Load() - before; n != wantRuns {
			t.Fatalf("key %d made %d kernel runs, want %d", seed, n, wantRuns)
		}
	}
	for seed := uint64(1); seed <= residentKeys; seed++ {
		use(seed, 1)
	}
	use(1, 0)              // key 1 is now the most recently used, key 2 the least
	use(residentKeys+1, 1) // evicts key 2
	use(1, 0)
	use(2, 1) // built again; evicts key 3
	use(residentKeys+1, 0)
	use(3, 1)
}

// TestResidentKeysFailedBuildNotKept: a key whose one kernel run fails
// gives its error to every runner of the list that made the run, without
// running again, and is not kept: the next list builds the key again.
func TestResidentKeysFailedBuildNotKept(t *testing.T) {
	ForgetKeys()
	runs := registerRunCountedToy(t, "resident-toy", 1)
	rs := NewRunners()
	rs.Expect("resident-toy", 1)
	rs.Expect("resident-toy", 1)
	_, err := rs.Get("resident-toy", 1)
	if err == nil {
		t.Fatal("a key whose kernel run panics built a runner")
	}
	if _, again := rs.Get("resident-toy", 1); !errors.Is(again, err) || runs.Load() != 1 {
		t.Fatalf("the list's second Get returned %v after %d kernel runs, want the key's error after 1", again, runs.Load())
	}
	rs.Close()
	if _, err := useKey(t, "resident-toy", 1); err != nil || runs.Load() != 2 {
		t.Fatalf("the next list got %v after %d kernel runs, want a runner built by a second run", err, runs.Load())
	}
}

// TestResidentKeysUnregisterDrops: Unregister drops a name's keys, and
// only its, so a kernel registered again under the name makes its own run.
func TestResidentKeysUnregisterDrops(t *testing.T) {
	ForgetKeys()
	runs := registerRunCountedToy(t, "resident-toy", 0)
	other := registerRunCountedToy(t, "resident-other", 0)
	for _, name := range []string{"resident-toy", "resident-other"} {
		if _, err := useKey(t, name, 1); err != nil {
			t.Fatal(err)
		}
	}
	Unregister("resident-toy")
	resident.mu.Lock()
	var names []string
	for _, e := range resident.keys {
		names = append(names, e.k.name)
	}
	resident.mu.Unlock()
	if !slices.Equal(names, []string{"resident-other"}) {
		t.Fatalf("after Unregister the resident keys are of %v, want resident-other's alone", names)
	}
	again := registerRunCountedToy(t, "resident-toy", 0)
	if _, err := useKey(t, "resident-toy", 1); err != nil || runs.Load() != 1 || again.Load() != 1 {
		t.Fatalf("the re-registered kernel got %v after %d+%d kernel runs, want its own one", err, runs.Load(), again.Load())
	}
	if _, err := useKey(t, "resident-other", 1); err != nil || other.Load() != 1 {
		t.Fatalf("a key of another name was dropped: %d kernel runs, want 1", other.Load())
	}
}
