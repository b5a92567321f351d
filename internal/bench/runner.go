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

// IsDUE reports whether the outcome is any detected unrecoverable error.
func (o Outcome) IsDUE() bool { return o == DUECrash || o == DUEHang || o == DUEMCA }

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

// Runner supervises repeated runs of one benchmark instance: it performs the
// golden run once (establishing the reference output, the tick count used
// for time-window attribution, and the work budget), then executes injected
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

	// outBuf is the reused output buffer handed to OutputInto benchmarks on
	// injected runs (see RunInjected's aliasing note).
	outBuf []float64

	// sh is what the runner shares with the others of its key: the resume
	// points RunInjected may start a run at, and the horizon the first
	// Victim or LiveAt call on any of them builds.
	sh *shared
}

// NewRunner builds a runner and performs the golden run. It returns an
// error if the pristine benchmark crashes or produces an empty output,
// which would indicate a broken workload rather than a fault effect.
func NewRunner(b Benchmark) (*Runner, error) { return newRunner(b, &shared{}) }

// newRunner is NewRunner for a runner of sh's key. Unless the key already
// has its resume points, the golden run saves them as it passes.
func newRunner(b Benchmark, sh *shared) (*Runner, error) {
	r := &Runner{B: b, sh: sh}
	ctx := newCtx(-1, nil, 0)
	points := []point{{}}
	if k, ok := b.(Resumable); ok && !sh.hasResumeSet() {
		ctx.probe = func(tick int) {
			if tick == 0 {
				return // Reset is the point there
			}
			if s, ok := k.SavePoint(tick); ok {
				points = append(points, point{tick, ctx.work, s})
			}
		}
	}
	res := r.run(ctx, false, point{})
	if res.Status != Completed {
		return nil, fmt.Errorf("bench: golden run of %s did not complete: %s %s", b.Name(), res.Status, res.PanicMsg)
	}
	if len(res.Output.Vals) == 0 {
		return nil, fmt.Errorf("bench: golden run of %s produced empty output", b.Name())
	}
	if res.Ticks == 0 {
		return nil, fmt.Errorf("bench: %s never called Tick; time-window attribution impossible", b.Name())
	}
	r.Golden = res.Output.Clone()
	r.TotalTicks = res.Ticks
	r.GoldenWork = res.Work
	r.budget = budgetFactor*res.Work + 1024
	sh.adoptResumeSet(b.Name(), &resumeSet{points, res.Ticks, res.Work, r.Golden})
	return r, nil
}

// Close is a no-op kept for callers written when runners owned lane
// goroutines: a runner holds nothing that outlives it.
func (r *Runner) Close() {}

// budgetFactor scales the golden work into the watchdog budget: generous
// enough that legitimate perturbed runs finish, tight enough that corrupted
// loop bounds trip it quickly.
const budgetFactor = 4

// Budget returns the watchdog budget for injected runs.
func (r *Runner) Budget() int64 { return r.budget }

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

// WindowBounds returns the tick interval [lo,hi) of window w.
func (r *Runner) WindowBounds(w int) (lo, hi int) {
	n := r.B.Windows()
	lo = w * r.TotalTicks / n
	hi = (w + 1) * r.TotalTicks / n
	return
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
// at the first resume point past the tick where nothing is armed and the
// work counter reads the golden run's, the kernel is asked whether the run
// has rejoined the golden run, and if it has, the run returns the golden
// run's result — Completed, its ticks, its work and its output — without
// executing the rest.
//
// For benchmarks implementing OutputInto, the result's Output aliases a
// buffer owned by the runner that the next RunInjected call overwrites;
// callers keeping an output across calls must Clone it.
func (r *Runner) RunInjected(tick int, inject func()) RawResult {
	ctx := newCtx(tick, inject, r.budget)
	if k, ok := r.B.(Convergent); ok && !forceSuffix {
		ctx.probe = r.convergence(ctx, k, tick)
	}
	return r.run(ctx, true, r.sh.resume.at(tick))
}

// rejoined is the sentinel panic value a run that has rejoined the golden
// run stops with; the Runner returns the golden run's result for it.
type rejoined struct{}

// convergence is the probe of a run injected at tick: it asks k once, at the
// first resume point past the tick where the fault has fired, nothing live is
// armed and the work counter reads the golden run's there, and stops the run
// if k says it has converged. A point where the counters differ is not one
// the run can rejoin at, and one where a cell is still armed would see the
// fault fire later.
func (r *Runner) convergence(ctx *Ctx, k Convergent, tick int) func(int) {
	pts := r.sh.resume.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].tick > tick })
	return func(t int) {
		for i < len(pts) && pts[i].tick < t {
			i++
		}
		if i == len(pts) || pts[i].tick != t || !ctx.injected || ctx.work != pts[i].work || r.B.Registry().AnyArmed() {
			return
		}
		ctx.probe = nil
		if k.Converged(t, pts[i].snap, r.Golden) {
			panic(rejoined{})
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
		oi, into := r.B.(OutputInto)
		into = into && reuse
		if rec := recover(); rec != nil {
			// A run that aborts or stops where it converges may leave
			// phase frames pushed; drop them so the registry is sane for
			// the next run.
			r.B.Registry().PopAll()
			switch rec := rec.(type) {
			case rejoined:
				res.Status, res.Ticks, res.Work = Completed, r.TotalTicks, r.GoldenWork
				if into {
					r.outBuf = append(r.outBuf[:0], r.Golden.Vals...)
					res.Output = r.Golden
					res.Output.Vals = r.outBuf
				} else {
					res.Output = r.Golden.Clone()
				}
			case watchdogFired:
				res.Status, res.PanicMsg = Hung, rec.String()
			default:
				res.Status, res.PanicMsg = Crashed, fmt.Sprint(rec)
			}
			return
		}
		res.Status = Completed
		if into {
			res.Output = oi.OutputInto(r.outBuf)
			r.outBuf = res.Output.Vals
		} else {
			res.Output = r.B.Output()
		}
	}()
	if from.tick == 0 {
		r.B.Run(ctx)
	} else {
		ctx.tick, ctx.work = from.tick, from.work
		r.B.(Resumable).Resume(ctx, from.tick, from.snap, r.Golden)
	}
	return
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
