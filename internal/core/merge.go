package core

import (
	"fmt"

	"phirel/internal/engine"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// Clone returns a deep copy of r, so a merge can start from one shard
// result without mutating it.
func (r *CampaignResult) Clone() *CampaignResult {
	out := *r
	if r.ByModel != nil {
		out.ByModel = make(map[fault.Model]OutcomeCounts, len(r.ByModel))
		for m, c := range r.ByModel {
			out.ByModel[m] = c
		}
	}
	out.ByWindow = append([]OutcomeCounts(nil), r.ByWindow...)
	if r.ByRegion != nil {
		out.ByRegion = make(map[state.Region]OutcomeCounts, len(r.ByRegion))
		for reg, c := range r.ByRegion {
			out.ByRegion[reg] = c
		}
	}
	return &out
}

// Merge folds o — another shard of the same campaign — into r. The two
// results must describe the same campaign family (benchmark, windows,
// policy) and cover adjacent global injection ranges: o must start exactly
// where r ends or end exactly where r starts, so the merged range stays
// contiguous and merging the K shards of a partitioned campaign in range
// order reconstructs the monolithic result bit for bit. Every field is
// folded: outcome tallies, per-model / per-window / per-region partitions,
// and the fired-share proportion (recomputed over the merged denominator).
func (r *CampaignResult) Merge(o *CampaignResult) error {
	if r.Benchmark != o.Benchmark {
		return fmt.Errorf("core: merge across benchmarks %q and %q", r.Benchmark, o.Benchmark)
	}
	if r.Policy != o.Policy {
		return fmt.Errorf("core: merge across policies %v and %v", r.Policy, o.Policy)
	}
	if r.Windows != o.Windows {
		return fmt.Errorf("core: merge across window counts %d and %d", r.Windows, o.Windows)
	}
	off, _, empty, err := engine.MergeRanges(r.Offset, r.N, o.Offset, o.N)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if empty {
		// An empty shard (its trial range held no injections) folds to
		// nothing.
		return nil
	}
	r.Offset = off

	r.Outcomes.Merge(o.Outcomes)
	if r.ByModel == nil && len(o.ByModel) > 0 {
		r.ByModel = make(map[fault.Model]OutcomeCounts, len(o.ByModel))
	}
	for m, c := range o.ByModel {
		mc := r.ByModel[m]
		mc.Merge(c)
		r.ByModel[m] = mc
	}
	if len(r.ByWindow) == 0 && len(o.ByWindow) > 0 {
		r.ByWindow = make([]OutcomeCounts, len(o.ByWindow))
	}
	for w, c := range o.ByWindow {
		if w < len(r.ByWindow) {
			r.ByWindow[w].Merge(c)
		}
	}
	if r.ByRegion == nil && len(o.ByRegion) > 0 {
		r.ByRegion = make(map[state.Region]OutcomeCounts, len(o.ByRegion))
	}
	for reg, c := range o.ByRegion {
		rc := r.ByRegion[reg]
		rc.Merge(c)
		r.ByRegion[reg] = rc
	}
	fired := r.FiredShare.K + o.FiredShare.K
	r.N += o.N
	r.FiredShare = stats.NewProportion(fired, r.N)
	return nil
}
