package analysis

import (
	"math"
	"math/rand/v2"
	"testing"

	"phirel/internal/stats"
)

// TestIntervalCoverage checks the estimators against what they promise
// rather than against themselves: a nominal 95 % interval must contain the
// rate the data were drawn at in about 95 % of replications. The draws come
// from math/rand/v2, not from stats.RNG, and by the definition — a binomial
// count is a sum of Bernoulli draws — so nothing under test produces its own
// reference. With 4 000 replications the sampling error of a coverage is
// 0.35 %; 93–97 % is the band outside which an interval is miscalibrated.
//
// At small counts the rate itself is drawn per replication from a range. On
// a lattice the coverage at one fixed rate swings with where the rate falls
// between two counts' bounds, and pinning one rate would test that accident,
// not the calibration.
func TestIntervalCoverage(t *testing.T) {
	const reps = 4000
	rng := rand.New(rand.NewPCG(24, 0x5eed))
	binomial := func(n int, p float64) int {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	between := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	// An arbitrary raw fault rate (faults per hour): FIT is linear in it,
	// and RateFITEstimate is the conversion beam.Result.FIT and the
	// monitor report through.
	const rate = 3.2e-9 * NaturalFlux
	fit := func(p float64) float64 { return rate * 1e9 * p }
	for _, tc := range []struct {
		name   string
		covers func() bool
	}{
		{"Wilson, k≈2–10 of 50", func() bool {
			p := between(0.04, 0.2)
			return stats.WilsonInterval(binomial(50, p), 50, 0.95).Contains(p)
		}},
		{"Wilson, k≈600 of 2000", func() bool { return stats.WilsonInterval(binomial(2000, 0.3), 2000, 0.95).Contains(0.3) }},
		{"FIT, k≈4–16 of 400", func() bool {
			p := between(0.01, 0.04)
			return RateFITEstimate(rate, binomial(400, p), 400).CI.Contains(fit(p))
		}},
		{"FIT, k≈900 of 1500", func() bool { return RateFITEstimate(rate, binomial(1500, 0.6), 1500).CI.Contains(fit(0.6)) }},
	} {
		covered := 0
		for i := 0; i < reps; i++ {
			if tc.covers() {
				covered++
			}
		}
		c := float64(covered) / reps
		t.Logf("%-22s covered %.2f %% of %d", tc.name, 100*c, reps)
		if math.Abs(c-0.95) > 0.02 {
			t.Errorf("%s: nominal 95 %% interval covered the true rate in %.2f %% of %d replications, want 93–97 %%", tc.name, 100*c, reps)
		}
	}
}
