package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi-Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies in [Lo,Hi].
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

func (iv Interval) String() string { return fmt.Sprintf("[%.4g, %.4g]", iv.Lo, iv.Hi) }

// zFor maps a confidence level to a standard-normal quantile. The paper uses
// 95% throughout ("Normal's 95% confidence intervals lower than 10% of the
// presented values").
func zFor(confidence float64) float64 {
	switch {
	case confidence >= 0.999:
		return 3.2905
	case confidence >= 0.99:
		return 2.5758
	case confidence >= 0.95:
		return 1.9600
	case confidence >= 0.90:
		return 1.6449
	case confidence >= 0.80:
		return 1.2816
	default:
		return 1.0
	}
}

// WilsonInterval returns the Wilson score interval for k successes in n
// trials at the given confidence level. Unlike the plain normal interval it
// stays inside [0,1] and behaves sensibly at k=0 and k=n, which matters for
// rare-outcome campaigns.
func WilsonInterval(k, n int, confidence float64) Interval {
	if n <= 0 {
		return Interval{0, 1}
	}
	z := zFor(confidence)
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := float64(z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)))
	lo := center - half
	hi := center + half
	// At the extremes the exact Wilson bounds are 0 and 1; floating-point
	// rounding can land a hair inside, so pin them.
	if lo < 0 || k == 0 {
		lo = 0
	}
	if hi > 1 || k == n {
		hi = 1
	}
	return Interval{lo, hi}
}

// Proportion bundles an estimated rate with its Wilson CI; it is the unit in
// which PVF and outcome shares are reported.
type Proportion struct {
	K, N int
	P    float64
	CI   Interval
}

// NewProportion computes k/n with a 95% Wilson interval.
func NewProportion(k, n int) Proportion {
	p := 0.0
	if n > 0 {
		p = float64(k) / float64(n)
	}
	return Proportion{K: k, N: n, P: p, CI: WilsonInterval(k, n, 0.95)}
}

// Percent returns the point estimate as a percentage.
func (pr Proportion) Percent() float64 { return 100 * pr.P }

func (pr Proportion) String() string {
	return fmt.Sprintf("%.2f%% (%d/%d, 95%% CI %.2f%%-%.2f%%)",
		pr.Percent(), pr.K, pr.N, 100*pr.CI.Lo, 100*pr.CI.Hi)
}
