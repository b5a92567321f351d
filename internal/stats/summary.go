package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming moments (Welford) plus extrema. The zero
// value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += float64(delta * (x - s.mean))
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// StderrMean returns the standard error of the mean.
func (s *Summary) StderrMean() float64 {
	if s.n < 2 {
		return 0
	}
	return s.Stddev() / math.Sqrt(float64(s.n))
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Stddev(), s.min, s.max)
}

// Merge folds another summary into s (Chan et al. parallel combination),
// used when campaign workers keep private summaries.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n1, n2 := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += o.m2 + delta*delta*n1*n2/tot
	s.n += o.n
}

// Histogram is a fixed-bin histogram over [Lo,Hi) with overflow/underflow
// tracking; used for relative-error distributions.
type Histogram struct {
	Lo, Hi      float64
	Counts      []int
	Under, Over int
	total       int
}

// NewHistogram creates a histogram with the given number of bins. It panics
// on a degenerate range or bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || !(hi > lo) {
		panic("stats: invalid histogram configuration")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // x == Hi after rounding
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations including under/overflow.
func (h *Histogram) Total() int { return h.total }

// Merge folds another histogram into h, completing the mergeable-aggregate
// algebra alongside Summary.Merge: a merge of split streams equals the
// whole, in any merge order. The binnings must match exactly — folding
// mismatched bins would silently redistribute mass, so it errors instead.
func (h *Histogram) Merge(o *Histogram) error {
	if o.Lo != h.Lo || o.Hi != h.Hi || len(o.Counts) != len(h.Counts) {
		return fmt.Errorf("stats: histogram binning mismatch: [%g,%g) over %d bins vs [%g,%g) over %d bins",
			h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Under += o.Under
	h.Over += o.Over
	h.total += o.total
	return nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64((float64(i)+0.5)*w)
}

// CDFAt returns the empirical fraction of observations <= x (underflow
// counts as below, overflow as above).
func (h *Histogram) CDFAt(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	c := h.Under
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, n := range h.Counts {
		upper := h.Lo + float64(float64(i+1)*w)
		if upper <= x {
			c += n
		} else {
			break
		}
	}
	return float64(c) / float64(h.total)
}

// Quantile returns the q-th empirical quantile of the values slice
// (q in [0,1]) using linear interpolation. It sorts a copy.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := float64(q * float64(len(v)-1))
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return float64(v[i]*(1-frac)) + float64(v[i+1]*frac)
}

// ExceedanceFraction returns the fraction of values strictly greater than
// threshold — the primitive behind FIT-vs-tolerance curves (an SDC "counts"
// at tolerance t when its relative error exceeds t).
func ExceedanceFraction(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}
