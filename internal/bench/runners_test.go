package bench

import (
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

// runCountedToy counts the kernel runs of its toy: golden and profiling.
type runCountedToy struct {
	*toy
	runs *atomic.Int64
}

func (c runCountedToy) Run(ctx *Ctx) {
	c.runs.Add(1)
	c.toy.Run(ctx)
}

// TestRunnersConcurrentFirstUse: two pool workers that miss a key at the
// same time each build a runner, golden runs side by side, but what runners
// only read is the key's: both ask for a victim at once, the key is profiled
// once, and both hold the same horizon and the same resume points.
func TestRunnersConcurrentFirstUse(t *testing.T) {
	var runs atomic.Int64
	Register("run-counted-toy", func(uint64) Benchmark { return runCountedToy{newToy(), &runs} })
	t.Cleanup(func() { Unregister("run-counted-toy") })

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
			if _, ok := r.Victim(3, stats.NewRNG(uint64(i)), state.ByVariable); !ok {
				t.Error("no victim at a tick with live sites")
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
	if n := runs.Load(); n != workers+1 {
		t.Errorf("%d kernel runs for %d golden runs and the key's first use, want %d", n, workers, workers+1)
	}
	if got[0].sh != got[1].sh || got[0].horizon() != got[1].horizon() {
		t.Error("two runners of one key hold their own horizon or resume points")
	}
	// A runner built outside a list shares with nobody.
	alone, err := (*Runners)(nil).Get("run-counted-toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if alone.horizon() == got[0].horizon() || runs.Load() != workers+3 {
		t.Errorf("a standalone runner took the list's horizon, or %d kernel runs are not its golden and profiling run more", runs.Load())
	}
}
