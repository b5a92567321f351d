package bench

import (
	"fmt"
	"sort"
)

// Outcome is the end-to-end classification of one run, shared vocabulary of
// both campaigns (paper §2.1).
type Outcome int

const (
	// Masked: the run completed and the output is bit-identical to golden.
	Masked Outcome = iota
	// SDC: the run completed with any output mismatch (paper's baseline
	// definition; tolerance-relaxed variants are derived in analysis).
	SDC
	// DUECrash: the program aborted (index out of range, invariant panic) —
	// the supervisor's "program crash" DUE.
	DUECrash
	// DUEHang: the deterministic watchdog expired — CAROL-FI's
	// kill-after-time-limit DUE.
	DUEHang
	// DUEMCA: beam mode only — the simulated Machine Check Architecture
	// detected an uncorrectable (double-bit) ECC error and killed the run.
	DUEMCA
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "Masked"
	case SDC:
		return "SDC"
	case DUECrash:
		return "DUE-crash"
	case DUEHang:
		return "DUE-hang"
	case DUEMCA:
		return "DUE-mca"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Status is the mechanical termination state of a run, before output
// comparison refines Completed into Masked/SDC.
type Status int

const (
	Completed Status = iota
	Crashed
	Hung
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Completed:
		return "completed"
	case Crashed:
		return "crashed"
	case Hung:
		return "hung"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// RawResult is the supervisor's record of one run.
type RawResult struct {
	Status   Status
	PanicMsg string // non-empty for Crashed
	Ticks    int
	Work     int64
	Injected bool
	Output   Output // valid only when Status == Completed
}

// Runner supervises repeated runs of one benchmark instance: it holds its
// key's golden run (the reference output, the tick count used for
// time-window attribution, and the work budget), then executes injected
// runs.
type Runner struct {
	B          Benchmark
	Golden     Output
	TotalTicks int
	GoldenWork int64

	// budget is the watchdog budget of an injected run, fixed by the golden
	// run: a runner outlives the cell that built it, so nothing a cell could
	// set may reach the next cell's watchdog.
	budget int64
	// key is the free-list key the runner was built for (see Runners).
	key runnerKey

	// outBuf is the reused output buffer of injected runs (see RunInjected's
	// aliasing note).
	outBuf []float64

	// sh is what the runner shares with the others of its key: the golden
	// run, the resume points RunInjected may start a run at, and the
	// horizon Victim and LiveAt read.
	sh *shared
	// reference makes the runner a reference runner, which pulls none of
	// the levers that spare work (see Reference). Only tests set it.
	reference bool
}

// NewRunner builds a runner and performs the golden run. It returns an
// error if the pristine benchmark crashes or produces an empty output,
// which would indicate a broken workload rather than a fault effect.
func NewRunner(b Benchmark) (*Runner, error) { return newRunner(b, &shared{}) }

// newRunner is NewRunner for a runner of sh's key. The key's first runner
// performs its one kernel run (build); every other one waits for that run
// and adopts what it found, its error included, without running.
func newRunner(b Benchmark, sh *shared) (*Runner, error) {
	r := &Runner{B: b, sh: sh}
	sh.once.Do(func() { sh.err = r.build() })
	if sh.err != nil {
		return nil, sh.err
	}
	r.Golden, r.TotalTicks, r.GoldenWork = sh.golden, sh.ticks, sh.work
	r.budget = budgetFactor*sh.work + 1024
	return r, nil
}

// Close is a no-op kept for callers written when runners owned lane
// goroutines: a runner holds nothing that outlives it.
func (r *Runner) Close() {}

// budgetFactor scales the golden work into the watchdog budget: generous
// enough that legitimate perturbed runs finish, tight enough that corrupted
// loop bounds trip it quickly.
const budgetFactor = 4

// Reference reports whether r is a reference runner: every injected run
// starts at Reset and executes its suffix to the end, its kernel performs
// every load of an armed cell instead of debiting it, and the campaigns
// (core.Injector.InjectOne, beam strikes) run every trial they would
// otherwise decide from the horizon. Its records and RawResults are what
// the levers must reproduce; only this package's tests build one.
func (r *Runner) Reference() bool { return r.reference }

// Window maps an injection tick to a time-window index in
// [0, B.Windows()) — the x-axis of Figure 6.
func (r *Runner) Window(tick int) int {
	w := r.B.Windows()
	if tick < 0 {
		return 0
	}
	if tick >= r.TotalTicks {
		return w - 1
	}
	return tick * w / r.TotalTicks
}

// RunGolden re-executes the pristine benchmark (used by tests to check
// determinism). Its output is freshly allocated, never reused.
func (r *Runner) RunGolden() RawResult { return r.run(newCtx(-1, nil, 0), false, point{}) }

// RunInjected executes one run with the inject callback fired at the given
// tick. The callback runs with the benchmark quiescent and typically
// corrupts one registry site. Up to the tick the run is the golden run, so
// it starts at the last resume point the kernel saved at or before the tick
// and executes only the ticks from there; a tick outside the golden run's
// never fires and its run is a whole one, from Reset.
//
// After its fault has fired, a run of a Convergent kernel may stop early:
// at every resume point past the tick where nothing is armed and the work
// counter reads the golden run's, the kernel is asked whether the rest of
// the run is the golden run's, and at the first that it is, the run
// returns Completed with the golden run's ticks and work and, as output,
// the prefix the kernel keeps of its live output followed by the golden
// output, without executing the rest.
//
// The result's Output aliases a buffer owned by the runner that the next
// RunInjected call overwrites; callers keeping an output across calls must
// Clone it.
func (r *Runner) RunInjected(tick int, inject func()) RawResult {
	ctx := newCtx(tick, inject, r.budget)
	ctx.reference = r.reference
	if k, ok := r.B.(Convergent); ok && !r.reference {
		ctx.probe = r.convergence(ctx, k, tick)
	}
	return r.run(ctx, true, r.start(tick))
}

// rejoined is the sentinel panic value a run whose rest is the golden run
// stops with; the Runner keeps the live output's first kept values and
// takes the rest from the golden run's.
type rejoined struct{ kept int }

// convergence is the probe of a run injected at tick: it asks k at every
// resume point past the tick where the fault has fired, nothing live is
// armed and the work counter reads the golden run's there, and stops the run
// at the first that k says has converged. A point where the counters differ
// is not one the run can rejoin at, and one where a cell is still armed
// would see the fault fire later.
func (r *Runner) convergence(ctx *Ctx, k Convergent, tick int) func(int) {
	pts := r.sh.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].tick > tick })
	return func(t int) {
		for i < len(pts) && pts[i].tick < t {
			i++
		}
		if i == len(pts) || pts[i].tick != t || !ctx.injected || ctx.work != pts[i].work || r.B.Registry().AnyArmed() {
			return
		}
		if kept, ok := k.Converged(t, pts[i].snap, r.Golden); ok {
			panic(rejoined{kept})
		}
	}
}

// run executes the benchmark from a resume point to the end; the zero point
// is Reset, a whole run.
func (r *Runner) run(ctx *Ctx, reuse bool, from point) (res RawResult) {
	r.B.Reset()
	defer func() {
		res.Ticks = ctx.Ticks()
		res.Work = ctx.WorkDone()
		res.Injected = ctx.Injected()
		if rec := recover(); rec != nil {
			// A run that aborts or stops where it converges may leave
			// phase frames pushed; drop them so the registry is sane for
			// the next run.
			r.B.Registry().PopAll()
			switch rec := rec.(type) {
			case rejoined:
				res.Status, res.Ticks, res.Work = Completed, r.TotalTicks, r.GoldenWork
				res.Output = r.output(reuse, rec.kept)
			case watchdogFired:
				res.Status, res.PanicMsg = Hung, rec.String()
			default:
				res.Status, res.PanicMsg = Crashed, fmt.Sprint(rec)
			}
			return
		}
		res.Status = Completed
		res.Output = r.output(reuse, -1)
	}()
	if from.tick == 0 {
		r.B.Run(ctx)
	} else {
		ctx.tick, ctx.work = from.tick, from.work
		r.B.(Resumable).Resume(ctx, from.tick, from.snap, r.Golden)
	}
	return
}

// output returns the run's output: the kernel's live output, or, of a run
// that stopped where it converged, its first kept values and the golden
// output's after them (kept < 0 keeps the whole live output). With reuse,
// the output goes into the runner's buffer; without, into a new one.
func (r *Runner) output(reuse bool, kept int) Output {
	var dst []float64
	if reuse {
		dst = r.outBuf
	}
	var out Output
	if kept == 0 {
		out = r.Golden
		out.Vals = append(dst[:0], r.Golden.Vals...)
	} else {
		out = r.B.Output(dst)
	}
	if kept > 0 {
		copy(out.Vals[kept:], r.Golden.Vals[kept:])
	}
	if reuse {
		r.outBuf = out.Vals
	}
	return out
}

// CompareExact reports whether two outputs are bitwise identical (NaN
// compares equal to NaN: an output that reproduces golden's NaNs is not a
// mismatch). It is the harness-level Masked/SDC discriminator; richer
// comparison lives in internal/analysis.
func CompareExact(golden, got Output) bool {
	if len(golden.Vals) != len(got.Vals) {
		return false
	}
	for i, g := range golden.Vals {
		v := got.Vals[i]
		if g != v && !(g != g && v != v) { // NaN != NaN, so g!=g means g is NaN
			return false
		}
	}
	return true
}
