package beam

import (
	"reflect"
	"sync/atomic"
	"testing"

	"phirel/internal/analysis"
	"phirel/internal/bench"
	"phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/phi"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// TestStrikeRecordsMatchForcedRun checks the decided strikes by
// construction: under the forceRun seam every strike that reaches
// architecture is run, and each campaign's result — every record, Detail
// strings included — must equal the one the planned campaign produces on
// its own, for every kernel on both devices with ECC on and off.
func TestStrikeRecordsMatchForcedRun(t *testing.T) {
	runs := 400
	if testing.Short() {
		runs = 12
	}
	for _, name := range all.Suite {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, dev := range []*phi.Device{phi.NewKNC3120A(), phi.NewKNC5110P()} {
				for _, noECC := range []bool{false, true} {
					cfg := Config{Benchmark: name, Runs: runs, Seed: 0x51, BenchSeed: 1, Workers: 2,
						Device: dev, DisableECC: noECC, KeepRecords: true}
					planned, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.forceRun = true
					forced, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if reflect.DeepEqual(planned, forced) {
						continue
					}
					for i := range planned.Records {
						if planned.Records[i] != forced.Records[i] {
							t.Fatalf("%s, ECC off %v, run %d:\n planned %+v\n forced  %+v", dev.Name, noECC, i, planned.Records[i], forced.Records[i])
						}
					}
					t.Fatalf("%s, ECC off %v: equal records, different results", dev.Name, noECC)
				}
			}
		})
	}
}

// countedRuns counts the kernel runs of the benchmark it wraps.
type countedRuns struct {
	bench.Benchmark
	runs *int
}

func (c countedRuns) Run(ctx *bench.Ctx) {
	*c.runs++
	c.Benchmark.Run(ctx)
}

// TestStrikeDecidedCounts counts, per kernel, the strikes of a seeded no-ECC
// campaign that are decided without a kernel run, and checks each decision
// against what the kernel does: every strike replayed on a copy of its
// stream is applied by hand, and a strike runs exactly when it corrupts
// something — a data strike whenever a buffer is live, a control strike
// whenever its armed cell fires.
func TestStrikeDecidedCounts(t *testing.T) {
	const seed = 11
	runs := 3000
	if testing.Short() {
		runs = 150
	}
	dev := withoutECC(phi.NewKNC3120A())
	var decidedAll atomic.Int64
	t.Run("kernels", func(t *testing.T) {
		for _, name := range all.Suite {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				decidedAll.Add(int64(countDecided(t, name, dev, seed, runs)))
			})
		}
	})
	if decidedAll.Load() == 0 && !testing.Short() {
		t.Error("no strike was decided without running")
	}
}

// countDecided runs one kernel's campaign strike by strike and returns how
// many strikes were decided without a kernel run.
func countDecided(t *testing.T, name string, dev *phi.Device, seed uint64, runs int) int {
	b, err := bench.New(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	kernelRuns := new(int)
	runner, err := bench.NewRunner(countedRuns{b, kernelRuns})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := phi.ProfileFor(name)
	if err != nil {
		t.Fatal(err)
	}
	reached, control, decided := 0, 0, 0
	for i := 0; i < runs; i++ {
		rng := stats.NewRNG(stats.Mix64(seed^beamSeedSalt, uint64(i)))
		replay := *rng
		before := *kernelRuns
		rec := oneRun(i, name, runner, dev, profile, rng, false)
		ran := *kernelRuns > before

		f := dev.SampleFault(&replay, profile)
		if f.Result == phi.Corrected || f.Result == phi.DetectedMCA {
			if ran {
				t.Fatalf("run %d: a %s fault ran the kernel", i, f.Result)
			}
			continue
		}
		reached++
		e := effectFor(f.Resource.Class, &replay)
		s := planStrike(runner, e, replay.Intn(runner.TotalTicks), &replay)
		corrupts := s.hit
		if s.hit && e == EffectControl {
			control++
			var d *state.Deferred
			runner.RunInjected(rec.Tick, func() { d = runner.Site(s.victim).(state.Armable).Arm(s.delay, s.model, s.armRNG) })
			corrupts = d.Fired
		}
		if ran != corrupts {
			t.Fatalf("run %d (%s): kernel run %v, but the strike corrupts state: %v", i, rec.Detail, ran, corrupts)
		}
		if !ran {
			decided++
			if rec.Outcome != bench.Masked.String() || rec.Pattern != analysis.PatternNone.String() || rec.Corrupted != 0 {
				t.Fatalf("run %d: decided strike recorded %+v", i, rec)
			}
		}
	}
	t.Logf("%d of %d runs reach architecture, %d control strikes, %d decided without a run", reached, runs, control, decided)
	return decided
}

// TestStrikeDecisionBoundary holds the decision against the kernel where it
// is closest: every cell live at a tick with at most 64 loads left (the
// control strike's delays are below 64) is armed with delay left-1, which
// must fire, and with delay left, which must not, and the strike must be
// decided exactly when it does not fire.
func TestStrikeDecisionBoundary(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 5
	}
	for _, name := range all.Suite {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := bench.New(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := bench.NewRunner(b)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for tick := 0; tick < runner.TotalTicks; tick += step {
				for _, v := range runner.LiveAt(tick) {
					for _, delay := range []int{v.LoadsLeft - 1, v.LoadsLeft} {
						if !v.Armable || delay < 0 || delay >= 64 {
							continue
						}
						s := strike{effect: EffectControl, victim: v, hit: true, delay: delay, model: fault.Single, armRNG: stats.NewRNG(1)}
						var d *state.Deferred
						runner.RunInjected(tick, func() { d = runner.Site(v).(state.Armable).Arm(delay, s.model, s.armRNG) })
						if s.decided() == d.Fired {
							t.Fatalf("tick %d, %s with %d loads left armed at delay %d: fired %v, decided %v", tick, v.Name, v.LoadsLeft, delay, d.Fired, s.decided())
						}
						checked++
					}
				}
			}
			t.Logf("%d boundary strikes", checked)
		})
	}
}

// livePick is the selection a strike made inside its run before strikes were
// planned: over the live registry, global first, among the armable cells for
// a control strike and the non-empty buffers, by footprint, for a data
// strike. It returns the victim's name ("" when nothing was live) and a
// control strike's delay, model and corruption stream.
func livePick(reg *state.Registry, e Effect, rng *stats.RNG) (string, int, fault.Model, *stats.RNG) {
	var sites []state.Site
	var weights []float64
	for _, s := range reg.Live() {
		if _, ok := s.(state.Armable); ok && e == EffectControl {
			sites = append(sites, s)
		}
		if ec, ok := s.(elemCorruptor); ok && e != EffectControl && ec.Len() > 0 {
			sites = append(sites, s)
			weights = append(weights, float64(ec.SizeBytes()))
		}
	}
	switch {
	case len(sites) == 0:
		return "", 0, 0, nil
	case e != EffectControl:
		return sites[rng.PickWeighted(weights)].Name(), 0, 0, nil
	}
	victim := sites[rng.Intn(len(sites))]
	m := fault.Single
	if rng.Bernoulli(0.3) {
		m = fault.Random
	}
	delay := rng.Intn(64)
	return victim.Name(), delay, m, rng.Split()
}

// TestStrikePlanMatchesLiveRegistry: a strike planned on the horizon picks
// the victim, and draws the values, that livePick takes on the live registry
// at the tick, and leaves its stream where livePick leaves it — at every
// tick of every kernel, for both kinds of strike and many streams.
func TestStrikePlanMatchesLiveRegistry(t *testing.T) {
	step, seeds := 1, 200
	if testing.Short() {
		step, seeds = 5, 20
	}
	for _, name := range all.Suite {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := bench.New(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := bench.NewRunner(b)
			if err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick < runner.TotalTicks; tick += step {
				runner.RunInjected(tick, func() {
					for _, e := range []Effect{EffectSingle, EffectControl} {
						for seed := uint64(0); seed < uint64(seeds); seed++ {
							planRNG, liveRNG := stats.NewRNG(seed), stats.NewRNG(seed)
							s := planStrike(runner, e, tick, planRNG)
							victim, delay, m, armRNG := livePick(b.Registry(), e, liveRNG)
							if s.hit != (victim != "") || s.hit && (s.victim.Name != victim || s.delay != delay || s.model != m) ||
								*planRNG != *liveRNG || (s.armRNG == nil) != (armRNG == nil) || armRNG != nil && *s.armRNG != *armRNG {
								t.Fatalf("tick %d, %s, stream %d: planned %q (delay %d, %s), the live registry gives %q (delay %d, %s)",
									tick, e, seed, s.victim.Name, s.delay, s.model, victim, delay, m)
							}
						}
					}
				})
			}
		})
	}
}
