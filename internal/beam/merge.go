package beam

import (
	"fmt"

	"phirel/internal/analysis"
	"phirel/internal/engine"
)

// Clone returns a deep copy of r, so a merge can start from one shard
// result without mutating it.
func (r *Result) Clone() *Result {
	out := *r
	if r.SDCByPattern != nil {
		out.SDCByPattern = make(map[analysis.Pattern]int, len(r.SDCByPattern))
		for p, n := range r.SDCByPattern {
			out.SDCByPattern[p] = n
		}
	}
	out.RelErrs = append([]float64(nil), r.RelErrs...)
	return &out
}

// Merge folds o — another shard of the same beam campaign — into r. The
// two results must describe the same campaign arm (benchmark, device, ECC
// ablation, calibrated raw fault rate) and cover adjacent global run
// ranges, so the merged range stays contiguous and merging the K shards of
// a partitioned campaign in range order reconstructs the monolithic result
// bit for bit. Every field is folded: the outcome tally, the ECC-corrected
// count, the per-pattern SDC split and the Figure 3 relative-error series
// (kept in global run order).
func (r *Result) Merge(o *Result) error {
	if r.Benchmark != o.Benchmark {
		return fmt.Errorf("beam: merge across benchmarks %q and %q", r.Benchmark, o.Benchmark)
	}
	if r.Device != o.Device {
		return fmt.Errorf("beam: merge across devices %q and %q", r.Device, o.Device)
	}
	if r.ECCDisabled != o.ECCDisabled {
		return fmt.Errorf("beam: merge across ECC arms (disabled %v and %v)", r.ECCDisabled, o.ECCDisabled)
	}
	if r.RawFaultRate != o.RawFaultRate {
		return fmt.Errorf("beam: merge across raw fault rates %g and %g", r.RawFaultRate, o.RawFaultRate)
	}
	// RelErrs carry no per-run index, so contiguity is what keeps the
	// merged Figure 3 series in global run order.
	off, prepend, empty, err := engine.MergeRanges(r.Offset, r.Runs, o.Offset, o.Runs)
	if err != nil {
		return fmt.Errorf("beam: %w", err)
	}
	if empty {
		// An empty shard (its run range held no runs) folds to nothing.
		return nil
	}
	r.Offset = off

	r.addCounts(o)
	switch {
	case len(o.RelErrs) == 0:
	case len(r.RelErrs) == 0:
		r.RelErrs = append([]float64(nil), o.RelErrs...)
	case prepend:
		r.RelErrs = append(append([]float64(nil), o.RelErrs...), r.RelErrs...)
	default:
		r.RelErrs = append(r.RelErrs, o.RelErrs...)
	}
	r.Runs += o.Runs
	return nil
}

// addCounts sums o's counts into r: the outcome tally, the ECC-corrected
// count and the per-pattern SDC split. It is the one sum behind Merge and
// the assembly of a campaign's worker shards.
func (r *Result) addCounts(o *Result) {
	r.Outcomes.Merge(o.Outcomes)
	r.CorrectedByECC += o.CorrectedByECC
	if r.SDCByPattern == nil && len(o.SDCByPattern) > 0 {
		r.SDCByPattern = make(map[analysis.Pattern]int, len(o.SDCByPattern))
	}
	for p, n := range o.SDCByPattern {
		r.SDCByPattern[p] += n
	}
}
