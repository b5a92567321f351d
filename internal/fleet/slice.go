package fleet

import "fmt"

// SliceResult restricts a complete cached SweepResult to serve as one shard
// partial of a larger, base-equal sweep — the cache side of the
// partial-overlap planner. Given a cached artifact whose spec shares
// CanonicalHashBase with the request spec, the cached tallies cover exactly
// the prefix [0, cachedN) of every injection cell and [0, cachedBeamRuns)
// of every beam cell; because trial i of a cell seeds identically
// regardless of N (the global trial index space), that prefix is
// bit-identical to what a fresh run of the same ranges would produce.
// SliceResult re-labels the artifact as the shard partial `plan` of `spec`,
// ready to fold with freshly computed suffix partials via
// MergeSweepResults.
//
// Aggregated tallies cannot be un-merged, so the only slice a cached
// artifact can serve is its full extent: plan's ranges must be exactly
// [0, cachedN) and [0, cachedBeamRuns). Anything finer needs a recompute —
// the planner's job is to pick the cached artifact whose extent saves the
// most trials, not to cut artifacts apart.
//
// The artifact, relabelled as the cached spec at the request's trial
// counts and tagged with its extent at plan's position, must pass
// CheckPartial for spec and plan: an equal content address is an equal
// base, an equal tag is plan at the cached extent, and the cell check
// catches a corrupted or hand-edited artifact here, not deep inside a
// merge. The returned partial carries the normalized request spec (the
// merged result takes shard 0's, so it is byte-identical to a monolithic
// run of the request, Workers included), shares the cached cells and
// their Results (callers must mutate neither), and is tagged with plan.
func SliceResult(full *SweepResult, spec Sweep, plan ShardPlan) (*SweepResult, error) {
	if full == nil {
		return nil, fmt.Errorf("fleet: no cached sweep result to slice")
	}
	if full.Shard != nil {
		return nil, fmt.Errorf("fleet: cached result is itself a shard partial (%s), want a complete artifact", full.Shard)
	}
	ns := spec.normalized().unhooked()
	out := &SweepResult{Spec: full.Spec, Cells: full.Cells, BeamCells: full.BeamCells, Shard: &ShardPlan{
		Index: plan.Index, Count: plan.Count,
		Injection: TrialRange{N: full.Spec.N},
		Beam:      TrialRange{N: full.Spec.BeamRuns},
	}}
	out.Spec.N, out.Spec.BeamRuns = ns.N, ns.BeamRuns
	// A cached prefix empty along a dimension (a beam-only artifact serving
	// a mixed request, or vice versa) carries no cells of that kind at all:
	// the request grid's, with nil Results, stand in, exactly like an
	// empty-range shard's.
	if out.Shard.Injection.Empty() {
		out.Cells = nil
		for _, c := range ns.Cells() {
			out.Cells = append(out.Cells, CellResult{CellSpec: c})
		}
	}
	if out.Shard.Beam.Empty() {
		out.BeamCells = nil
		for _, c := range ns.BeamCells() {
			out.BeamCells = append(out.BeamCells, BeamCellResult{BeamCellSpec: c})
		}
	}
	if err := CheckPartial(ns, plan, out); err != nil {
		return nil, fmt.Errorf("fleet: the cached sweep cannot serve the request: %w", err)
	}
	out.Spec = ns
	return out, nil
}
