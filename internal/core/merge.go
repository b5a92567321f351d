package core

import (
	"fmt"

	"phirel/internal/engine"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// NewCampaignResult returns the empty result of a campaign: benchmark under
// policy, its first injection at global index offset, over windows time
// windows. Records fold into it one at a time (Fold) and other results of
// the same campaign add to it (Add).
func NewCampaignResult(benchmark string, policy state.Policy, offset, windows int) *CampaignResult {
	return &CampaignResult{
		Benchmark: benchmark,
		Offset:    offset,
		Windows:   windows,
		Policy:    policy,
		ByModel:   map[fault.Model]OutcomeCounts{},
		ByWindow:  make([]OutcomeCounts, windows),
		ByRegion:  map[state.Region]OutcomeCounts{},
		// The fired share of no injections, as Fold and Add keep it: a
		// result's FiredShare is always NewProportion(fired, N).
		FiredShare: stats.NewProportion(0, 0),
	}
}

// Fold tallies one record into r. A record outside r's windows counts
// everywhere but in ByWindow. Each engine worker folds the records it runs
// into a private result, so aggregation needs no locks and campaign memory
// is O(workers), not O(N); a published log re-derives its campaign's result
// through the same fold (cmd/phi-report -in).
func (r *CampaignResult) Fold(rec InjectionRecord) {
	o := rec.OutcomeOf()
	r.Outcomes.Add(o)
	m := rec.ModelOf()
	mc := r.ByModel[m]
	mc.Add(o)
	r.ByModel[m] = mc
	if rec.Window >= 0 && rec.Window < len(r.ByWindow) {
		r.ByWindow[rec.Window].Add(o)
	}
	rc := r.ByRegion[rec.Region]
	rc.Add(o)
	r.ByRegion[rec.Region] = rc
	fired := r.FiredShare.K
	if rec.Fired {
		fired++
	}
	r.N++
	r.FiredShare = stats.NewProportion(fired, r.N)
}

// Add sums o's counts into r: the outcome tally, the per-model, per-window
// and per-region partitions and N, with the fired share recomputed over the
// sum. It checks neither the campaign family nor the trial ranges (Merge
// does); a window index past r's windows is dropped.
func (r *CampaignResult) Add(o *CampaignResult) {
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
	r.N += o.N
	r.FiredShare = stats.NewProportion(r.FiredShare.K+o.FiredShare.K, r.N)
}

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
// order reconstructs the monolithic result bit for bit. The counts fold
// through Add.
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
	r.Add(o)
	return nil
}
