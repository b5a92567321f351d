package core

import (
	"phirel/internal/analysis"
	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// DefaultArmDelayMax bounds the load-count delay sampled for armed scalar
// corruptions. Hot loop variables are loaded thousands of times per tick,
// so a uniform delay in [0, 1024) lands the flip mid-loop almost always;
// cooler variables may see the delay expire in a later tick or never —
// the dead-variable masking CAROL-FI also observes.
const DefaultArmDelayMax = 1024

// Injector is one cell's view of a golden-run runner: the victim-selection
// policy and the arming bound the cell injects under, over a runner that
// may be borrowed from a bench.Runners list and serve other cells before
// and after. The runner carries nothing from one cell to the next — every
// run starts with Reset, and an aborted one pops its phase frames — so the
// view is all a cell owns. It is not safe for concurrent use; campaigns
// take one runner per worker.
type Injector struct {
	// Bench is Runner.B, the benchmark instance the runner drives.
	Bench  bench.Benchmark
	Runner *bench.Runner
	// Policy selects victims among live sites (zero value: frame-then-variable).
	Policy state.Policy
	// ArmDelayMax bounds scalar arming delays (default DefaultArmDelayMax).
	ArmDelayMax int

	// forceRun is the differential tests' seam: every trial is run, the
	// decided ones included, so their records can be compared.
	forceRun bool
}

// NewInjector is the standalone form: it builds the benchmark, performs its
// golden run and returns an injector over that runner, which nobody else
// holds. Campaigns borrow theirs from CampaignConfig.Runners instead.
func NewInjector(benchmark string, benchSeed uint64, policy state.Policy) (*Injector, error) {
	var standalone *bench.Runners // the nil list: Get builds, Put drops
	r, err := standalone.Get(benchmark, benchSeed)
	if err != nil {
		return nil, err
	}
	return newInjector(r, policy), nil
}

// newInjector views r under policy.
func newInjector(r *bench.Runner, policy state.Policy) *Injector {
	return &Injector{Bench: r.B, Runner: r, Policy: policy, ArmDelayMax: DefaultArmDelayMax}
}

// InjectOne performs a single experiment with the given fault model, using
// rng for every random choice. The trial is planned, decided, and only then
// run. The plan is drawn up front, in the order every published record
// depends on: the interrupt tick, the victim (picked by the runner's horizon
// from the frame stack live at that tick, with the registry's own pick
// function), and for a scalar victim the arm delay (Bernoulli(0.75), then
// Intn(max)) and the corruption's own stream (Split). A buffer victim draws
// its element and bits when the run applies the plan, after all of those.
//
// The decision: when no site is live at the tick, or the scalar victim has
// no more than delay loads left in the run, nothing is ever corrupted, the
// run would be the golden run over again, and the record is complete without
// it: fired false, Masked. Every other trial runs, and an armed cell is
// then sure to fire.
func (in *Injector) InjectOne(m fault.Model, rng *stats.RNG) InjectionRecord {
	tick := rng.Intn(in.Runner.TotalTicks)
	rec := InjectionRecord{
		Benchmark: in.Bench.Name(),
		Model:     m.String(),
		Policy:    in.Policy.String(),
		Tick:      tick,
		Window:    in.Runner.Window(tick),
		Elem:      -1,
		Outcome:   bench.Masked.String(),
		Pattern:   analysis.PatternNone.String(),
	}
	victim, ok := in.Runner.Victim(tick, rng, in.Policy)
	var (
		delay  int
		armRNG *stats.RNG
	)
	if ok {
		rec.Site = victim.Name
		rec.Region = victim.Region
		rec.Kind = victim.Kind.String()
		if victim.Armable {
			max := in.ArmDelayMax
			if max <= 0 {
				max = DefaultArmDelayMax
			}
			// A quarter of interrupts land immediately before the victim's
			// next use (live window), the rest uniformly across its next
			// `max` uses; cold variables whose remaining uses run out stay
			// uncorrupted — the dead-variable masking of the real tool.
			if rng.Bernoulli(0.75) {
				delay = rng.Intn(max)
			}
			armRNG = rng.Split()
		}
	}
	if !in.forceRun && (!ok || victim.Armable && delay >= victim.LoadsLeft) {
		return rec
	}

	var (
		rep      state.Report
		deferred *state.Deferred
	)
	res := in.Runner.RunInjected(tick, func() {
		if !ok {
			return
		}
		site := in.Runner.Site(victim)
		if victim.Armable {
			deferred = site.(state.Armable).Arm(delay, m, armRNG)
		} else {
			rep = site.Corrupt(rng, m)
			rec.Fired = true
		}
	})
	if deferred != nil && deferred.Fired {
		rep = deferred.Report
		rec.Fired = true
	}
	if rec.Fired {
		rec.Elem = rep.Elem
		rec.BitsChanged = rep.BitsChanged
		rec.Before = rep.Before
		rec.After = rep.After
	}
	rec.PanicMsg = res.PanicMsg

	switch res.Status {
	case bench.Crashed:
		rec.Outcome = bench.DUECrash.String()
	case bench.Hung:
		rec.Outcome = bench.DUEHang.String()
	default:
		if ms := analysis.Compare(in.Runner.Golden, res.Output); len(ms) > 0 {
			rec.Outcome = bench.SDC.String()
			rec.Pattern = analysis.Classify(ms, in.Runner.Golden.Shape).String()
			rec.MaxRelErr = analysis.FiniteRelErr(analysis.MaxRelErr(ms))
			rec.CorruptedElems = len(ms)
		}
	}
	return rec
}
