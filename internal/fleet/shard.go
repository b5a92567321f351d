package fleet

import (
	"context"
	"fmt"
	"reflect"
	"sort"

	"phirel/internal/beam"
	"phirel/internal/core"
)

// TrialRange is a contiguous slice [Offset, Offset+N) of a cell's global
// trial index space.
type TrialRange struct {
	Offset int `json:"offset"`
	N      int `json:"n"`
}

// ShardPlan describes shard Index of Count for a sweep: every injection
// cell runs its Injection trial range and every beam cell its Beam range.
// Cell enumeration and per-cell seed derivation are untouched by sharding —
// a shard sees the exact grid (and seeds) of the monolithic sweep and runs
// a contiguous slice of every cell, so trial i of any cell lands on the
// same RNG stream no matter which shard executes it.
type ShardPlan struct {
	// Index is the 0-based shard index.
	Index int `json:"index"`
	// Count is the total shard count K.
	Count int `json:"count"`
	// Injection is this shard's trial range of every injection cell.
	Injection TrialRange `json:"injection"`
	// Beam is this shard's run range of every beam cell.
	Beam TrialRange `json:"beam"`
}

// String renders the plan's position as the 1-based "k/K" the CLI uses.
func (p ShardPlan) String() string { return fmt.Sprintf("%d/%d", p.Index+1, p.Count) }

// shardRange splits [0, n) into count balanced contiguous ranges (sizes
// differ by at most one) and returns the k-th. Empty ranges are possible
// when n < count.
func shardRange(n, k, count int) TrialRange {
	lo := n * k / count
	hi := n * (k + 1) / count
	return TrialRange{Offset: lo, N: hi - lo}
}

// Plan returns shard k (0-based) of count for the sweep. The K plans of a
// sweep partition every cell's trial space exactly.
func (s Sweep) Plan(k, count int) (ShardPlan, error) {
	if count < 1 || k < 0 || k >= count {
		return ShardPlan{}, fmt.Errorf("fleet: shard %d/%d out of range", k+1, count)
	}
	ns := s.normalized()
	return ShardPlan{
		Index:     k,
		Count:     count,
		Injection: shardRange(ns.N, k, count),
		Beam:      shardRange(ns.BeamRuns, k, count),
	}, nil
}

// RunShard executes shard k (0-based) of count: the full grid of both cell
// kinds, each cell restricted to its ShardPlan trial range (a cell whose
// range is empty lands in the partial with a nil Result). The returned
// SweepResult is tagged with the plan; MergeSweepResults folds the K
// partials into a result bit-identical to Run with the same spec.
func (s Sweep) RunShard(ctx context.Context, k, count int) (*SweepResult, error) {
	plan, err := s.Plan(k, count)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, &plan)
}

// CheckPlan reports the first way plan is not a well-formed shard of this
// sweep: a position outside 0..Count-1, or a trial range that escapes the
// sweep's [0, N) injection or [0, BeamRuns) beam space. It deliberately
// does not require the balanced Plan split — explicit plans are how the
// partial-overlap cache computes exactly the trial ranges a cached prefix
// is missing.
func (s Sweep) CheckPlan(plan ShardPlan) error {
	ns := s.normalized()
	if plan.Count < 1 || plan.Index < 0 || plan.Index >= plan.Count {
		return fmt.Errorf("fleet: shard %d/%d out of range", plan.Index+1, plan.Count)
	}
	if plan.Injection.N < 0 || plan.Injection.Offset < 0 || !(TrialRange{N: ns.N}).Covers(plan.Injection) {
		return fmt.Errorf("fleet: plan injection range %+v escapes the sweep's [0, %d)", plan.Injection, ns.N)
	}
	if plan.Beam.N < 0 || plan.Beam.Offset < 0 || !(TrialRange{N: ns.BeamRuns}).Covers(plan.Beam) {
		return fmt.Errorf("fleet: plan beam range %+v escapes the sweep's [0, %d)", plan.Beam, ns.BeamRuns)
	}
	return nil
}

// RunPlan executes an explicit shard plan: the full grid of both cell
// kinds, each cell restricted to exactly plan's trial ranges — the worker
// entry point of the partial-overlap cache, where the ranges to compute
// come from what a cached artifact does not cover rather than from the
// balanced k-of-K split. The partial it returns folds with any other
// partials that complete the partition, bit-identical to the monolithic
// run (trial i of a cell seeds identically no matter which plan computes
// it).
func (s Sweep) RunPlan(ctx context.Context, plan ShardPlan) (*SweepResult, error) {
	if err := s.CheckPlan(plan); err != nil {
		return nil, err
	}
	return s.run(ctx, &plan)
}

// PlanWithPrefix lays out the shard plans of a partially-cached run: plan
// 0 covers the prefix [0, injCovered) × [0, beamCovered) — the part an
// existing base-equal artifact already answers (see SliceResult) — and
// plans 1..fresh split the remaining trial ranges into balanced contiguous
// pieces. The fresh+1 plans partition the sweep's trial space exactly, so
// the corresponding partials fold with MergeSweepResults into a result
// byte-identical to Sweep.Run: a request extending a cached sweep from N
// to 2N computes only the missing N trials.
func (s Sweep) PlanWithPrefix(injCovered, beamCovered, fresh int) ([]ShardPlan, error) {
	ns := s.normalized()
	if fresh < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 fresh shard, got %d", fresh)
	}
	if injCovered < 0 || injCovered > ns.N || beamCovered < 0 || beamCovered > ns.BeamRuns {
		return nil, fmt.Errorf("fleet: covered prefix %d+%d escapes the sweep's %d+%d trials",
			injCovered, beamCovered, ns.N, ns.BeamRuns)
	}
	if injCovered == ns.N && beamCovered == ns.BeamRuns {
		return nil, fmt.Errorf("fleet: prefix %d+%d covers the whole sweep — nothing left to compute", injCovered, beamCovered)
	}
	count := fresh + 1
	plans := make([]ShardPlan, count)
	plans[0] = ShardPlan{
		Index: 0, Count: count,
		Injection: TrialRange{N: injCovered},
		Beam:      TrialRange{N: beamCovered},
	}
	injRest := TrialRange{Offset: injCovered, N: ns.N - injCovered}
	beamRest := TrialRange{Offset: beamCovered, N: ns.BeamRuns - beamCovered}
	for k := 1; k < count; k++ {
		plans[k] = ShardPlan{
			Index: k, Count: count,
			Injection: injRest.Split(k-1, fresh),
			Beam:      beamRest.Split(k-1, fresh),
		}
	}
	return plans, nil
}

// MergeSweepResults folds the shard partials of one sweep back into a
// complete SweepResult, bit-identical (struct and JSON) to the monolithic
// Sweep.Run with the same spec. Before folding it validates compatibility:
// every part must be a shard partial of the same shard count, the shard
// indices must cover 0..K-1 exactly once, the normalised specs (grid,
// seeds, trial counts — Workers and Progress are execution details and may
// differ per shard) must be equal, each part's recorded cell specs must
// match the grid the shared spec derives, and the parts' plans — in index
// order — must tile the sweep's trial space exactly: contiguous from 0,
// no gaps, no overlaps, summing to N and BeamRuns. The balanced RunShard
// split satisfies this, and so does any finer or uneven partition, which
// is what lets the partial-overlap cache fold a cached prefix partial
// (SliceResult) with freshly computed suffix ranges (RunPlan). Parts are
// folded in shard order, so callers may pass them in any order.
func MergeSweepResults(parts ...*SweepResult) (*SweepResult, error) {
	ps, err := sortedPartials(parts, func(a, b *ShardPlan) bool { return a.Index < b.Index })
	if err != nil {
		return nil, err
	}
	// Keyed on (index, count): a repeated partial is a duplicate, but two
	// partials sharing an index across different split widths are
	// incompatible sweeps, which the shard-count check below diagnoses
	// accurately.
	seen := map[[2]int]bool{}
	for _, p := range ps {
		key := [2]int{p.Shard.Index, p.Shard.Count}
		if seen[key] {
			return nil, fmt.Errorf("fleet: shard %s appears more than once in the merge set — was a partial repeated?", p.Shard)
		}
		seen[key] = true
	}
	count := ps[0].Shard.Count
	if len(ps) != count {
		return nil, fmt.Errorf("fleet: got %d shard partials, want %d", len(ps), count)
	}
	for i, p := range ps {
		if p.Shard.Count != count {
			return nil, fmt.Errorf("fleet: shard %s split %d ways, others %d", p.Shard, p.Shard.Count, count)
		}
		if p.Shard.Index != i {
			return nil, fmt.Errorf("fleet: shard %d/%d is missing from the merge set", i+1, count)
		}
	}
	whole := ShardPlan{Injection: TrialRange{N: ps[0].Spec.N}, Beam: TrialRange{N: ps[0].Spec.BeamRuns}}
	return foldTiling(ps, whole, true)
}

// sortedPartials returns parts ordered by less over their shard tags,
// refusing an empty list and any part that is nil or carries no tag.
func sortedPartials(parts []*SweepResult, less func(a, b *ShardPlan) bool) ([]*SweepResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("fleet: no partials to merge")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("fleet: partial %d is nil", i)
		}
		if p.Shard == nil {
			return nil, fmt.Errorf("fleet: part %d is not a shard partial (already merged or monolithic)", i)
		}
	}
	ps := append([]*SweepResult(nil), parts...)
	sort.Slice(ps, func(i, j int) bool { return less(ps[i].Shard, ps[j].Shard) })
	return ps, nil
}

// foldTiling is the one fold behind MergeSweepResults and
// MergeShardPartials: the parts, in the order given, must record one spec
// (Workers and Progress are execution details, not part of a result's
// identity, so shards run with different pool sizes still merge) and their
// ranges must tile span's two ranges exactly — contiguous from its offsets,
// no gaps, no overlaps, ending at its ends. Every cell then folds by
// Clone+Merge in that order; a dimension span leaves empty folds to
// nil-Result cells, as an empty-range run records them. With positional set
// the order is authoritative (parts keyed by shard index), so an empty range
// must also sit where the previous part ended; without it the parts are
// keyed by offset and an empty range has no position to check. The result
// carries the first part's spec and no shard tag.
func foldTiling(ps []*SweepResult, span ShardPlan, positional bool) (*SweepResult, error) {
	spec := ps[0].Spec.identity()
	dims := [2]string{"injection", "beam"}
	want := [2]TrialRange{span.Injection, span.Beam}
	next := [2]int{want[0].Offset, want[1].Offset}
	for _, p := range ps {
		if !reflect.DeepEqual(spec, p.Spec.identity()) {
			return nil, fmt.Errorf("fleet: shard %s ran a different sweep spec (grid, seeds or trial counts)", p.Shard)
		}
		for d, r := range [2]TrialRange{p.Shard.Injection, p.Shard.Beam} {
			switch {
			case r.N < 0:
				return nil, fmt.Errorf("fleet: shard %s %s range %+v has negative length", p.Shard, dims[d], r)
			case r.Empty() && !positional:
			case r.Offset != next[d]:
				return nil, fmt.Errorf("fleet: shard %s %s range %+v does not continue at trial %d — the parts must tile %+v exactly",
					p.Shard, dims[d], r, next[d], want[d])
			default:
				next[d] = r.End()
			}
		}
	}
	if next[0] != want[0].End() || next[1] != want[1].End() {
		return nil, fmt.Errorf("fleet: the %d parts cover injection trials up to %d and beam runs up to %d, want %d and %d",
			len(ps), next[0], next[1], want[0].End(), want[1].End())
	}
	cells, err := foldCells(ps, dims[0], spec.Cells(), want[0].Empty(),
		func(p *SweepResult) []CellResult { return p.Cells },
		func(c CellSpec, r *core.CampaignResult) CellResult { return CellResult{CellSpec: c, Result: r} })
	if err != nil {
		return nil, err
	}
	beamCells, err := foldCells(ps, dims[1], spec.BeamCells(), want[1].Empty(),
		func(p *SweepResult) []BeamCellResult { return p.BeamCells },
		func(c BeamCellSpec, r *beam.Result) BeamCellResult { return BeamCellResult{BeamCellSpec: c, Result: r} })
	if err != nil {
		return nil, err
	}
	return &SweepResult{Spec: ps[0].Spec, Cells: cells, BeamCells: beamCells}, nil
}

// tally is the Clone+Merge algebra core.CampaignResult and beam.Result
// share; both are pointers, so the zero value is "no result".
type tally[R any] interface {
	comparable
	Clone() R
	Merge(R) error
}

func (c CellResult) split() (CellSpec, *core.CampaignResult) { return c.CellSpec, c.Result }
func (c BeamCellResult) split() (BeamCellSpec, *beam.Result) { return c.BeamCellSpec, c.Result }

// foldCells folds one grid's per-part results into one result per cell,
// validating that each part carries the grid's exact cell specs. With
// allowEmpty a cell with no results in any part folds to a nil result (what
// an empty-range shard records); without it that is an error — the parts
// must account for every trial.
func foldCells[C interface{ split() (S, R) }, S comparable, R tally[R]](ps []*SweepResult, kind string, grid []S, allowEmpty bool, cellsOf func(*SweepResult) []C, join func(S, R) C) ([]C, error) {
	if len(grid) == 0 {
		return nil, nil
	}
	var none R
	out := make([]C, len(grid))
	for i, c := range grid {
		acc := none
		for _, p := range ps {
			cells := cellsOf(p)
			if len(cells) != len(grid) {
				return nil, fmt.Errorf("fleet: shard %s has %d %s cells, grid has %d", p.Shard, len(cells), kind, len(grid))
			}
			got, r := cells[i].split()
			if got != c {
				return nil, fmt.Errorf("fleet: shard %s %s cell %d is %+v, grid says %+v", p.Shard, kind, i, got, c)
			}
			switch {
			case r == none:
			case acc == none:
				acc = r.Clone()
			default:
				if err := acc.Merge(r); err != nil {
					return nil, fmt.Errorf("fleet: %s cell %+v: %w", kind, c, err)
				}
			}
		}
		if acc == none && !allowEmpty {
			return nil, fmt.Errorf("fleet: %s cell %+v has no results in any part", kind, c)
		}
		out[i] = join(c, acc)
	}
	return out, nil
}

// MergeFiles reads shard-partial sweep artifacts (phi-bench -sweep -shard
// k/K -out) and folds them with MergeSweepResults — the library form of
// cmd/phi-merge.
func MergeFiles(paths ...string) (*SweepResult, error) {
	parts := make([]*SweepResult, 0, len(paths))
	for _, path := range paths {
		p, err := readSweepFile(path)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return MergeSweepResults(parts...)
}
