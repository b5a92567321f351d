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
// The returned partial carries the normalized request spec (so the merged
// result's recorded spec — which MergeSweepResults takes from shard 0 — is
// byte-identical to a monolithic run of the request, including its Workers
// setting), shares the cached artifact's per-cell Result pointers (callers
// must not mutate either), and is tagged with plan.
func SliceResult(full *SweepResult, spec Sweep, plan ShardPlan) (*SweepResult, error) {
	if full == nil {
		return nil, fmt.Errorf("fleet: no cached sweep result to slice")
	}
	if full.Shard != nil {
		return nil, fmt.Errorf("fleet: cached result is itself a shard partial (%s), want a complete artifact", full.Shard)
	}
	ns := spec.normalized().unhooked()
	if err := ns.CheckPlan(plan); err != nil {
		return nil, err
	}
	cached := full.Spec
	if cached.CanonicalHashBase() != ns.CanonicalHashBase() {
		return nil, fmt.Errorf("fleet: cached sweep %.12s… and request %.12s… have different base identities (grid, seeds or inputs)",
			cached.CanonicalHash(), ns.CanonicalHash())
	}
	if want := (TrialRange{N: cached.N}); plan.Injection != want {
		return nil, fmt.Errorf("fleet: plan injection range %+v is not the cached prefix %+v — aggregated tallies only serve their full extent",
			plan.Injection, want)
	}
	if want := (TrialRange{N: cached.BeamRuns}); plan.Beam != want {
		return nil, fmt.Errorf("fleet: plan beam range %+v is not the cached prefix %+v — aggregated tallies only serve their full extent",
			plan.Beam, want)
	}

	out := &SweepResult{Spec: ns, Shard: &plan}

	// Base-hash equality already pins the grid; re-derive and compare cell
	// by cell anyway so a corrupted or hand-edited artifact fails here with
	// a precise message instead of deep inside a merge. When the cached
	// prefix is empty along a dimension (a beam-only artifact serving a
	// mixed request, or vice versa) the artifact carries no cells of that
	// kind at all — synthesize them from the request grid with nil Results,
	// exactly like an empty-range shard, so the partial still exposes the
	// full grid to merge validation.
	grid := ns.Cells()
	switch {
	case plan.Injection.Empty():
		if len(grid) > 0 {
			out.Cells = make([]CellResult, len(grid))
			for i, c := range grid {
				out.Cells[i] = CellResult{CellSpec: c}
			}
		}
	default:
		if len(full.Cells) != len(grid) {
			return nil, fmt.Errorf("fleet: cached sweep has %d injection cells, request grid has %d", len(full.Cells), len(grid))
		}
		out.Cells = make([]CellResult, len(grid))
		for i, c := range grid {
			if full.Cells[i].CellSpec != c {
				return nil, fmt.Errorf("fleet: cached cell %d is %+v, request grid says %+v", i, full.Cells[i].CellSpec, c)
			}
			out.Cells[i] = CellResult{CellSpec: c, Result: full.Cells[i].Result}
		}
	}
	beamGrid := ns.BeamCells()
	switch {
	case plan.Beam.Empty():
		if len(beamGrid) > 0 {
			out.BeamCells = make([]BeamCellResult, len(beamGrid))
			for j, c := range beamGrid {
				out.BeamCells[j] = BeamCellResult{BeamCellSpec: c}
			}
		}
	default:
		if len(full.BeamCells) != len(beamGrid) {
			return nil, fmt.Errorf("fleet: cached sweep has %d beam cells, request grid has %d", len(full.BeamCells), len(beamGrid))
		}
		out.BeamCells = make([]BeamCellResult, len(beamGrid))
		for j, c := range beamGrid {
			if full.BeamCells[j].BeamCellSpec != c {
				return nil, fmt.Errorf("fleet: cached beam cell %d is %+v, request grid says %+v", j, full.BeamCells[j].BeamCellSpec, c)
			}
			out.BeamCells[j] = BeamCellResult{BeamCellSpec: c, Result: full.BeamCells[j].Result}
		}
	}
	return out, nil
}
