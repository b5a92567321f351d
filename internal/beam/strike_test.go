package beam

import (
	"testing"

	"phirel/internal/bench"
	"phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

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
