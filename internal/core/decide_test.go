package core

import (
	"context"
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/state"
)

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

				res, err := RunCampaign(context.Background(), CampaignConfig{Benchmark: name, N: n, Seed: 0x5b, BenchSeed: 1, Policy: policy, Workers: 2})
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
