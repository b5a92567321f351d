package bench

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// toy is a minimal benchmark for harness tests: it sums 1..n into each
// output slot across `iters` ticks, with the loop bound in a corruptible
// cell so tests can force hangs, crashes, and SDCs.
type toy struct {
	reg     *state.Registry
	n       *state.Cell[int]
	base    *state.Cell[int] // base output index; corrupting it causes worker OOB
	out     *state.Buf[float64]
	iters   int
	workers int
	// hooks for tests
	crashAtTick int // -1 disables
}

func newToy() *toy {
	t := &toy{
		reg:         state.NewRegistry(),
		iters:       10,
		workers:     2,
		crashAtTick: -1,
	}
	t.n = state.NewCell("n", "control", 50)
	t.base = state.NewCell("base", "control", 0)
	t.out = state.NewBuf[float64]("out", "matrix", state.Dims2(4, 4))
	t.reg.Global().Register(t.n, t.base, t.out)
	return t
}

func (t *toy) Name() string              { return "toy" }
func (t *toy) Class() Class              { return Algebraic }
func (t *toy) Windows() int              { return 5 }
func (t *toy) Registry() *state.Registry { return t.reg }

func (t *toy) Reset() {
	t.reg.PopAll()
	t.reg.DisarmAll()
	t.n.Store(50)
	t.base.Store(0)
	for i := range t.out.Data {
		t.out.Data[i] = 0
	}
}

func (t *toy) Run(ctx *Ctx) {
	for it := 0; it < t.iters; it++ {
		ctx.Tick()
		if it == t.crashAtTick {
			panic("forced crash")
		}
		ctx.ParallelFor(t.workers, t.out.Len(), func(w, start, end int) {
			for i := start; i < end; i++ {
				sum := 0.0
				bound := t.n.Load()
				ctx.Work(int64(bound)) // reserve budget before the corruptible loop
				for k := 1; k <= bound; k++ {
					sum += float64(k)
				}
				t.out.Data[t.base.Load()+i] += sum
			}
		})
	}
}

func (t *toy) Output(dst []float64) Output {
	return Output{Vals: append(dst[:0], t.out.Data...), Shape: t.out.Shape}
}

func TestRunnerGolden(t *testing.T) {
	b := newToy()
	r, err := NewRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalTicks != 10 {
		t.Fatalf("ticks = %d", r.TotalTicks)
	}
	want := float64(10 * 50 * 51 / 2)
	for _, v := range r.Golden.Vals {
		if v != want {
			t.Fatalf("golden value %v, want %v", v, want)
		}
	}
	if r.GoldenWork != int64(10*16*50) {
		t.Fatalf("golden work = %d", r.GoldenWork)
	}
}

func TestRunnerGoldenDeterministic(t *testing.T) {
	b := newToy()
	r, err := NewRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunGolden()
	if res.Status != Completed {
		t.Fatalf("status %v", res.Status)
	}
	if !CompareExact(r.Golden, res.Output) {
		t.Fatal("golden re-run differs")
	}
}

func TestRunInjectedMasked(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(3, func() {}) // no-op injection
	if res.Status != Completed || !res.Injected {
		t.Fatalf("res = %+v", res)
	}
	if !CompareExact(r.Golden, res.Output) {
		t.Fatal("no-op injection changed output")
	}
}

func TestRunInjectedSDC(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(5, func() { b.out.Data[3] += 1 })
	if res.Status != Completed {
		t.Fatalf("status %v", res.Status)
	}
	if CompareExact(r.Golden, res.Output) {
		t.Fatal("corruption did not surface in output")
	}
}

func TestRunInjectedHang(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(2, func() { b.n.Store(1 << 40) })
	if res.Status != Hung {
		t.Fatalf("status %v (%s), want Hung", res.Status, res.PanicMsg)
	}
	if !strings.Contains(res.PanicMsg, "watchdog") {
		t.Fatalf("panic msg %q", res.PanicMsg)
	}
}

func TestRunInjectedCrashInWorker(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(2, func() { b.base.Store(1000) }) // out[1000+i] is OOB in workers
	if res.Status != Crashed {
		t.Fatalf("status %v, want Crashed", res.Status)
	}
	if res.PanicMsg == "" {
		t.Fatal("crash lost its message")
	}
	// The runner must remain usable afterwards.
	res2 := r.RunInjected(2, func() {})
	if res2.Status != Completed || !CompareExact(r.Golden, res2.Output) {
		t.Fatalf("runner broken after crash: %+v", res2.Status)
	}
}

func TestRunnerCrashOnOrchestrator(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	b.crashAtTick = 4
	res := r.RunGolden()
	if res.Status != Crashed || !strings.Contains(res.PanicMsg, "forced crash") {
		t.Fatalf("res = %+v", res)
	}
	b.crashAtTick = -1
}

func TestRunnerPopsFramesAfterAbort(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(1, func() {
		b.reg.Push(&state.Frame{Name: "phase"}) // simulate a phase frame live at abort time
		b.n.Store(1 << 40)
	})
	if res.Status != Hung {
		t.Fatalf("status %v", res.Status)
	}
	if n := len(b.reg.Frames()); n != 1 {
		t.Fatalf("registry depth %d after abort, want 1", n)
	}
}

func TestWindowMapping(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	// 10 ticks into 5 windows → 2 ticks per window.
	wants := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	for tick, want := range wants {
		if got := r.Window(tick); got != want {
			t.Errorf("Window(%d) = %d, want %d", tick, got, want)
		}
	}
	if r.Window(-3) != 0 || r.Window(99) != 4 {
		t.Error("window clamping wrong")
	}
}

func TestInjectionFiresExactlyOnce(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	var fires int32
	res := r.RunInjected(0, func() { atomic.AddInt32(&fires, 1) })
	if res.Status != Completed || fires != 1 {
		t.Fatalf("fires = %d, status %v", fires, res.Status)
	}
}

// ctoy is a convergent toy in the shape of the kernels that write their
// output once, slot by slot: tick it pays 1+pad units of work, clears pad and
// writes slot it from input it, so a corrupted finished slot stays an SDC, a
// corrupted input matters until its tick has read it and a corrupted pad only
// costs work. Every other tick is a resume point, and the check records
// where it was asked.
type ctoy struct {
	reg     *state.Registry
	pad     *state.Cell[int]
	in, out *state.Buf[float64]
	asked   []int
}

func newCtoy() *ctoy {
	c := &ctoy{reg: state.NewRegistry(), pad: state.NewCell("pad", "control", 0),
		in: state.NewBuf[float64]("in", "matrix", state.Dims1(8)), out: state.NewBuf[float64]("out", "matrix", state.Dims1(8))}
	c.reg.Global().Register(c.pad, c.in, c.out)
	return c
}

func (c *ctoy) Name() string              { return "ctoy" }
func (c *ctoy) Class() Class              { return Algebraic }
func (c *ctoy) Windows() int              { return 4 }
func (c *ctoy) Registry() *state.Registry { return c.reg }

func (c *ctoy) Reset() {
	c.reg.PopAll()
	c.reg.DisarmAll()
	c.pad.Store(0)
	clear(c.in.Data)
	clear(c.out.Data)
}

func (c *ctoy) Run(ctx *Ctx) { c.ticks(ctx, 0) }

func (c *ctoy) ticks(ctx *Ctx, it int) {
	for ; it < 8; it++ {
		ctx.Tick()
		ctx.Work(1 + int64(c.pad.Load()))
		c.pad.Store(0)
		c.out.Data[it] = float64(it) + c.in.Data[it]
	}
}

func (c *ctoy) Output(dst []float64) Output {
	dst = GrowVals(dst, len(c.out.Data))
	copy(dst, c.out.Data)
	return Output{Vals: dst, Shape: c.out.Shape}
}

func (c *ctoy) SavePoint(tick int) (*Snapshot, bool) { return nil, tick%2 == 0 }

func (c *ctoy) Resume(ctx *Ctx, tick int, _ *Snapshot, golden Output) {
	copy(c.out.Data[:tick], golden.Vals)
	c.ticks(ctx, tick)
}

// Converged: pad and the inputs from the tick on are read before they are
// written; the slots before the tick are never written again.
func (c *ctoy) Converged(tick int, _ *Snapshot, _ Output) (kept int, ok bool) {
	c.asked = append(c.asked, tick)
	return tick, c.pad.Load() == 0 && !slices.ContainsFunc(c.in.Data[tick:], func(v float64) bool { return v != 0 })
}

// TestRunInjectedStopsWhereItConverges: a run is asked at every point past
// its tick where its fault has fired and its work counter reads the golden
// run's, until it has converged, and one that has converged returns the
// slots the kernel keeps as the run left them — a corrupted one an SDC —
// and the golden run's after them, in a buffer of its own. A run whose
// corruption only cost work, or whose armed cell fires past the first point,
// is never asked, and every run ends as a reference runner's run of it,
// which executes its suffix to the end.
func TestRunInjectedStopsWhereItConverges(t *testing.T) {
	c := newCtoy()
	r, err := NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	ref.reference = true
	for _, tc := range []struct {
		what   string
		inject func()
		asked  []int
		want   []float64 // the output, nil for the golden one
	}{
		{"an overwritten finished slot", func() { c.out.Data[1] = 99 }, []int{4}, []float64{0, 99, 2, 3, 4, 5, 6, 7}},
		{"an input read past the first point", func() { c.in.Data[5] = 0.5 }, []int{4, 6}, []float64{0, 1, 2, 3, 4, 5.5, 6, 7}},
		{"an input the tick reads", func() { c.in.Data[3] = 0.5 }, []int{4}, []float64{0, 1, 2, 3.5, 4, 5, 6, 7}},
		{"an input no tick reads again", func() { c.in.Data[0] = 0.5 }, []int{4}, nil},
		{"a padded tick", func() { c.pad.Store(5) }, nil, nil},
		{"a pad armed to fire past the first point", func() { c.pad.Arm(1, fault.Single, stats.NewRNG(1)) }, nil, nil},
	} {
		run := func(r *Runner) RawResult {
			c.asked = nil
			return r.RunInjected(3, tc.inject)
		}
		want := run(ref)
		want.Output = want.Output.Clone()
		got := run(r)
		if !slices.Equal(c.asked, tc.asked) || got.Status != want.Status || got.Ticks != want.Ticks || got.Work != want.Work ||
			!got.Injected || !CompareExact(want.Output, got.Output) {
			t.Errorf("%s: asked at %v, want %v; got %+v, want %+v", tc.what, c.asked, tc.asked, got, want)
		}
		if tc.want == nil {
			tc.want = r.Golden.Vals
		}
		if !slices.Equal(got.Output.Vals, tc.want) {
			t.Errorf("%s: output %v, want %v", tc.what, got.Output.Vals, tc.want)
		}
		if converged := tc.asked != nil; converged != (got.Work == r.GoldenWork) {
			t.Errorf("%s: work %d, golden %d", tc.what, got.Work, r.GoldenWork)
		}
		got.Output.Vals[0], got.Output.Vals[7] = -1, -1
		if r.Golden.Vals[0] == -1 || r.Golden.Vals[7] == -1 {
			t.Fatalf("%s: the result aliases the golden output", tc.what)
		}
	}
}

// TestReferenceRefusesDebits is the reference half of state's
// TestDebitLoadsEdges: a reference runner's run refuses any debit while one
// of the cells is armed, and only while armed, where a normal run's debit is
// state.DebitLoads's.
func TestReferenceRefusesDebits(t *testing.T) {
	c := state.NewCell("i", "control", 9)
	cells, n := []*state.Cell[int]{c}, []int64{1}
	c.Arm(100, fault.Zero, stats.NewRNG(1))
	ref, normal := &Ctx{reference: true}, &Ctx{}
	if ref.DebitLoads(cells, n) {
		t.Fatal("reference run: debit on an armed cell accepted")
	}
	if !normal.DebitLoads(cells, n) || c.LoadsToFire() != 100 {
		t.Fatalf("normal run: debit of 1 of 101 loads refused, or %d loads left", c.LoadsToFire())
	}
	c.Disarm()
	if !ref.DebitLoads(cells, n) {
		t.Fatal("reference run: debit on an unarmed cell refused")
	}
}

// TestReferenceTakesNoShortcut: a reference runner's run is told to take no
// shortcut, which is how the Levers harness holds CLAMR's neighbour index
// and sort skip to the full paths; a normal run may take them.
func TestReferenceTakesNoShortcut(t *testing.T) {
	if (&Ctx{reference: true}).Shortcuts() || !(&Ctx{}).Shortcuts() {
		t.Fatal("a reference run may take shortcuts, or a normal run may not")
	}
}

// TestSameBits: the convergence checks' compare tells every bit apart —
// the sign of zero and a NaN's payload — and reads only b's leading values.
func TestSameBits(t *testing.T) {
	nan, other := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, tc := range []struct {
		a, b []float64
		want bool
	}{
		{nil, []float64{1}, true},
		{[]float64{1, 2}, []float64{1, 2, 3}, true},
		{[]float64{1, 2}, []float64{1, 3}, false},
		{[]float64{0}, []float64{math.Copysign(0, -1)}, false},
		{[]float64{nan}, []float64{nan}, true},
		{[]float64{nan}, []float64{other}, false},
	} {
		if got := SameBits(tc.a, tc.b); got != tc.want {
			t.Errorf("SameBits(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if SameBits([]float32{1, 2}, []float32{1, 2.5}) || !SameBits([]float32{1, 2}, []float32{1, 2}) {
		t.Error("SameBits on float32 values does not tell 2 from 2.5")
	}
}

func TestCompareExactNaN(t *testing.T) {
	nan := func() float64 {
		var z float64
		return z / z
	}()
	a := Output{Vals: []float64{1, nan}}
	b := Output{Vals: []float64{1, nan}}
	if !CompareExact(a, b) {
		t.Fatal("identical NaN outputs reported as mismatch")
	}
	c := Output{Vals: []float64{1, 2}}
	if CompareExact(a, c) {
		t.Fatal("NaN vs number reported equal")
	}
	if CompareExact(a, Output{Vals: []float64{1}}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestParallelForCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		n := 100
		seen := make([]bool, n)
		nextLane, nextStart := 0, 0
		newCtx(-1, nil, 0).ParallelFor(workers, n, func(w, start, end int) {
			if w != nextLane || start != nextStart {
				t.Errorf("workers=%d: lane %d [%d,%d) ran out of order", workers, w, start, end)
			}
			nextLane, nextStart = w+1, end
			for i := start; i < end; i++ {
				if seen[i] {
					t.Errorf("index %d visited twice", i)
				}
				seen[i] = true
			}
		})
		if nextStart != n {
			t.Fatalf("workers=%d covered [0,%d) of %d", workers, nextStart, n)
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	newCtx(-1, nil, 0).ParallelFor(4, 0, func(w, s, e int) { called = true })
	if called {
		t.Fatal("body called for n=0")
	}
}

func TestParallelForMoreWorkersThanWork(t *testing.T) {
	var chunks [][2]int
	newCtx(-1, nil, 0).ParallelFor(64, 3, func(w, s, e int) { chunks = append(chunks, [2]int{s, e}) })
	if len(chunks) != 3 || chunks[0] != [2]int{0, 1} || chunks[2] != [2]int{2, 3} {
		t.Fatalf("chunks %v, want one index per lane", chunks)
	}
}

// recoverFrom runs f and returns what it panicked with.
func recoverFrom(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestParallelForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := recoverFrom(func() {
			newCtx(-1, nil, 0).ParallelFor(workers, 100, func(w, start, end int) {
				if start == 0 {
					panic("boom")
				}
			})
		})
		if r != "boom" {
			t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
		}
	}
}

// The lowest panicking lane wins, and the lanes after it still run and
// have their work flushed: a lane order leaking into PanicMsg or Work would
// break artifact byte-identity.
func TestParallelForLowestLanePanicWins(t *testing.T) {
	ctx := newCtx(-1, nil, 0)
	ctx.Work(5)
	var ran []int
	r := recoverFrom(func() {
		ctx.ParallelFor(4, 100, func(w, start, end int) {
			ran = append(ran, w)
			ctx.WorkLane(w, int64(10*(w+1)))
			if w == 0 || w == 2 {
				panic(w)
			}
		})
	})
	if r != 0 {
		t.Fatalf("recovered %v, want lane 0's value", r)
	}
	if len(ran) != 4 {
		t.Fatalf("lanes run: %v, want all four", ran)
	}
	if ctx.WorkDone() != 5+10+20+30+40 {
		t.Fatalf("WorkDone = %d after a panicking section, want 105", ctx.WorkDone())
	}
}

// Each lane's WorkLane check sees only the work before the section plus its
// own, so four lanes of 30 pass a budget of 100 one by one; the flushed total
// must still trip the watchdog when the section ends.
func TestParallelForCrossLaneWatchdog(t *testing.T) {
	ctx := newCtx(-1, nil, 100)
	lanes := 0
	r := recoverFrom(func() {
		ctx.ParallelFor(4, 4, func(w, start, end int) {
			ctx.WorkLane(w, 30)
			lanes++
		})
	})
	if _, ok := r.(watchdogFired); !ok || lanes != 4 {
		t.Fatalf("recovered %v after %d lanes, want the watchdog after 4", r, lanes)
	}
	// A single lane over the budget trips at its own reserve.
	ctx = newCtx(-1, nil, 100)
	r = recoverFrom(func() {
		ctx.ParallelFor(2, 2, func(w, start, end int) { ctx.WorkLane(w, int64(60+50*w)) })
	})
	if _, ok := r.(watchdogFired); !ok || ctx.WorkDone() != 60+110 {
		t.Fatalf("recovered %v with WorkDone %d, want the watchdog with 170", r, ctx.WorkDone())
	}
}

func TestCtxWatchdog(t *testing.T) {
	ctx := newCtx(-1, nil, 100)
	ctx.Work(99)
	defer func() {
		if _, ok := recover().(watchdogFired); !ok {
			t.Fatal("watchdog did not fire")
		}
	}()
	ctx.Work(50)
}

func TestCtxUnlimitedBudget(t *testing.T) {
	ctx := newCtx(-1, nil, 0)
	ctx.Work(1 << 50) // must not panic
	if ctx.WorkDone() != 1<<50 {
		t.Fatal("work accounting")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("dup-test", func(seed uint64) Benchmark { return newToy() })
	defer Unregister("dup-test")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("dup-test", func(seed uint64) Benchmark { return newToy() })
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("no-such-benchmark", 1); err == nil {
		t.Fatal("New accepted unknown name")
	}
}

func TestHas(t *testing.T) {
	Register("has-test", func(seed uint64) Benchmark { return newToy() })
	if !Has("has-test") {
		t.Fatal("Has missed a registered benchmark")
	}
	if Has("no-such-benchmark") {
		t.Fatal("Has accepted unknown name")
	}
	Unregister("has-test")
	if Has("has-test") {
		t.Fatal("Has found an unregistered benchmark")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("Names not sorted")
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Masked, SDC, DUECrash, DUEHang, DUEMCA} {
		if o.String() == "" {
			t.Fatal("empty outcome name")
		}
	}
	for _, c := range []Class{Algebraic, Stencil, NBody, DynProg, AMR} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	for _, s := range []Status{Completed, Crashed, Hung} {
		if s.String() == "" {
			t.Fatal("empty status name")
		}
	}
}
