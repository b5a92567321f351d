package core

import (
	"math"
	"reflect"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// countedRuns counts the kernel runs of the benchmark it wraps.
type countedRuns struct {
	bench.Benchmark
	runs *int
}

func (c countedRuns) Run(ctx *bench.Ctx) {
	*c.runs++
	c.Benchmark.Run(ctx)
}

// countedInjector is NewInjector over a run-counting benchmark; the count
// starts after the golden run.
func countedInjector(t *testing.T, name string) (*Injector, *int) {
	t.Helper()
	b, err := bench.New(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := new(int)
	r, err := bench.NewRunner(countedRuns{b, runs})
	if err != nil {
		t.Fatal(err)
	}
	*runs = 0
	return newInjector(r, state.ByFrameThenVariable), runs
}

// TestDecidedMatchesForcedRun checks the horizon's decisions by
// construction: under the forceRun seam every trial is executed, and the
// record of each must equal the one InjectOne produces on its own, where a
// trial that cannot fire is decided from the table. Both sides are counted
// in kernel runs: the forced side runs every trial, the other exactly its
// fired ones — a trial that runs always fires — and each side pays one
// profiling run, once.
func TestDecidedMatchesForcedRun(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 1
	}
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			decided, decidedRuns := countedInjector(t, name)
			forced, forcedRuns := countedInjector(t, name)
			forced.forceRun = true
			total, fired := 0, 0
			for _, m := range fault.Models {
				for _, policy := range []state.Policy{state.ByFrameThenVariable, state.ByVariable, state.ByBytes} {
					for _, max := range []int{0, 32, 1 << 18} { // 0: DefaultArmDelayMax
						decided.Policy, decided.ArmDelayMax = policy, max
						forced.Policy, forced.ArmDelayMax = policy, max
						for i := 0; i < trials; i++ {
							seed := stats.Mix64(uint64(m)<<40|uint64(policy)<<32|uint64(max), uint64(i))
							d := decided.InjectOne(m, stats.NewRNG(seed))
							f := forced.InjectOne(m, stats.NewRNG(seed))
							if !reflect.DeepEqual(d, f) {
								t.Fatalf("%s %s, delays below %d, trial %d:\n decided %+v\n run     %+v", m, policy, max, i, d, f)
							}
							total++
							if d.Fired {
								fired++
							}
						}
					}
				}
			}
			if *forcedRuns != 1+total {
				t.Errorf("the forced side ran its kernel %d times for %d trials, want one profiling run more", *forcedRuns, total)
			}
			if *decidedRuns != 1+fired {
				t.Errorf("%d kernel runs for %d fired trials of %d, want one profiling run more", *decidedRuns, fired, total)
			}
			if fired == total {
				t.Errorf("all %d trials fired: no trial was decided without running", total)
			}
		})
	}
}

// neverFires is the probability that a scalar armed with the campaign's
// delay distribution — 0 with probability 1/4, else uniform below max —
// is loaded no more than delay times when it has left loads coming.
func neverFires(left, max int) float64 {
	switch {
	case left == 0:
		return 1
	case left < max:
		return 0.75 * float64(max-left) / float64(max)
	}
	return 0
}

// TestNeverFiredShareClosedForm derives the share of injections that never
// fire from the liveness table alone — no trial, no pick function: every
// tick is equally likely, a site is picked with the probability its policy
// gives it (written out below), a buffer always fires and a scalar fires
// unless neverFires. A campaign's measured share must agree within four
// standard deviations of its own sampling.
func TestNeverFiredShareClosedForm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 2000
	for _, name := range bench.Names() {
		for _, policy := range []state.Policy{state.ByFrameThenVariable, state.ByVariable} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				t.Parallel()
				inj, err := NewInjector(name, 1, policy)
				if err != nil {
					t.Fatal(err)
				}
				run := inj.Runner
				p := 0.0
				for tick := 0; tick < run.TotalTicks; tick++ {
					live := run.LiveAt(tick)
					if len(live) == 0 {
						p += 1 // nothing to corrupt
						continue
					}
					perFrame := map[int]int{}
					for _, v := range live {
						perFrame[v.Frame]++
					}
					for _, v := range live {
						if !v.Armable {
							continue
						}
						pick := 1 / float64(len(live)) // by-variable: every live site alike
						if policy == state.ByFrameThenVariable {
							// A frame that holds sites, then a site of it.
							pick = 1 / float64(len(perFrame)) / float64(perFrame[v.Frame])
						}
						p += pick * neverFires(v.LoadsLeft, DefaultArmDelayMax)
					}
				}
				p /= float64(run.TotalTicks)

				res, err := RunCampaign(CampaignConfig{Benchmark: name, N: n, Seed: 0x5b, BenchSeed: 1, Policy: policy, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				got, sigma := 1-res.FiredShare.P, math.Sqrt(p*(1-p)/n)
				t.Logf("P(never fires) = %.4f from the table, %.4f over %d trials (sigma %.4f)", p, got, n, sigma)
				if math.Abs(got-p) > 4*sigma {
					t.Errorf("%.4f of %d trials never fired, the table says %.4f ± %.4f", got, n, p, sigma)
				}
			})
		}
	}
}
