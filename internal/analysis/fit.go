package analysis

import (
	"math"

	"phirel/internal/stats"
)

// NaturalFlux is the reference sea-level neutron flux used throughout the
// paper: 13 n/(cm²·h) (JEDEC JESD89A, paper §2.1).
const NaturalFlux = 13.0

// HoursPerFIT converts between FIT and MTBF: FIT is failures per 10⁹
// device-hours.
const HoursPerFIT = 1e9

// MTBFHours returns the mean time between failures for a FIT rate.
func MTBFHours(fit float64) float64 {
	if fit <= 0 {
		return math.Inf(1)
	}
	return HoursPerFIT / fit
}

// MachineMTBFDays returns the expected days between failures for a machine
// built from `boards` devices, each failing at the given FIT — the paper's
// Trinity-scale extrapolation (19,000 Xeon Phis → an LUD SDC every ~11-12
// days).
func MachineMTBFDays(fit float64, boards int) float64 {
	if fit <= 0 || boards <= 0 {
		return math.Inf(1)
	}
	return MTBFHours(fit*float64(boards)) / 24
}

// FITEstimate bundles a FIT point estimate with the binomial uncertainty of
// the underlying outcome probability.
type FITEstimate struct {
	FIT float64
	// K outcome events out of N sampled faults.
	K, N int
	// CI is the FIT confidence interval induced by the Wilson interval of
	// P(outcome|fault).
	CI stats.Interval
}

// RateFITEstimate builds a FIT estimate from a raw fault rate (faults per
// hour, e.g. phi.Device.RawFaultRate at the natural flux) and a
// fault-conditional outcome count: FIT = rate · 10⁹ · k/n, with the Wilson
// interval of k/n scaled by the same factor. The raw rate is σ · Φ, the
// sensitive cross-section (cm²) times the flux, so this is the paper's
// FIT = σ · Φ · P(outcome|fault) · 10⁹. This is the one conversion
// both the beam campaign's post-hoc fits (beam.Result.FIT) and the
// resident monitor's rolling estimates (internal/monitor) go through, so
// the two can be compared for bit-exact equality on equal tallies.
func RateFITEstimate(rawFaultRate float64, k, n int) FITEstimate {
	p := stats.NewProportion(k, n)
	scale := rawFaultRate * 1e9
	return FITEstimate{
		FIT: scale * p.P,
		K:   k, N: n,
		CI: stats.Interval{Lo: scale * p.CI.Lo, Hi: scale * p.CI.Hi},
	}
}

// ToleranceCurve returns the paper's Figure 3 series: for each tolerance t
// (fractional, e.g. 0.005 = 0.5%), the percentage FIT reduction obtained by
// not counting SDCs whose worst relative error is ≤ t.
func ToleranceCurve(relErrs []float64, tolerances []float64) []float64 {
	out := make([]float64, len(tolerances))
	if len(relErrs) == 0 {
		return out
	}
	for i, t := range tolerances {
		surviving := stats.ExceedanceFraction(relErrs, t)
		out[i] = 100 * (1 - surviving)
	}
	return out
}

// DefaultTolerances is the sweep of Figure 3 (0.1% to 15%).
var DefaultTolerances = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.10, 0.15}
