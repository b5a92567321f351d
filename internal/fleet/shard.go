package fleet

import (
	"context"
	"fmt"
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

// Split cuts the plan's two ranges into count balanced contiguous pieces
// each (TrialRange.Split) and returns the k-th, at the plan's own position:
// the one cut behind Plan, PlanWithPrefix's fresh shards, checkpoint chunks
// and a stolen straggler's children.
func (p ShardPlan) Split(k, count int) ShardPlan {
	p.Injection, p.Beam = p.Injection.Split(k, count), p.Beam.Split(k, count)
	return p
}

// Plan returns shard k (0-based) of count for the sweep. The K plans of a
// sweep partition every cell's trial space exactly.
func (s Sweep) Plan(k, count int) (ShardPlan, error) {
	if count < 1 || k < 0 || k >= count {
		return ShardPlan{}, fmt.Errorf("fleet: shard %d/%d out of range", k+1, count)
	}
	plan := s.Whole().Split(k, count)
	plan.Index, plan.Count = k, count
	return plan, nil
}

// Whole is the plan of the sweep's whole trial space: one shard of one. A
// negative trial count, like 0, disables its cell kind.
func (s Sweep) Whole() ShardPlan {
	return ShardPlan{Count: 1, Injection: TrialRange{N: max(s.N, 0)}, Beam: TrialRange{N: max(s.BeamRuns, 0)}}
}

// Trials counts plan's cell-weighted trials: its injection range times the
// sweep's injection cells plus its beam range times the beam cells. It is
// the unit in which a fan-out credits resumed and stolen work and the
// service counts cached and computed trials; s.Trials(s.Whole()) is the
// whole sweep's.
func (s Sweep) Trials(plan ShardPlan) int {
	return plan.Injection.N*len(s.Cells()) + plan.Beam.N*len(s.BeamCells())
}

// RunShard executes shard k (0-based) of count: RunPlan of the balanced
// Plan(k, count). MergeSweepResults folds the K partials into a result
// bit-identical to Run with the same spec.
func (s Sweep) RunShard(ctx context.Context, k, count int) (*SweepResult, error) {
	plan, err := s.Plan(k, count)
	if err != nil {
		return nil, err
	}
	return s.RunPlan(ctx, plan)
}

// checkPlan reports the first way plan is not a well-formed shard of this
// sweep: a position outside 0..Count-1, or a trial range that escapes the
// sweep's [0, N) injection or [0, BeamRuns) beam space. It deliberately
// does not require the balanced Plan split — explicit plans are how the
// partial-overlap cache computes exactly the trial ranges a cached prefix
// is missing.
func (s Sweep) checkPlan(plan ShardPlan) error {
	if plan.Count < 1 || plan.Index < 0 || plan.Index >= plan.Count {
		return fmt.Errorf("fleet: shard %d/%d out of range", plan.Index+1, plan.Count)
	}
	if plan.Injection.N < 0 || plan.Injection.Offset < 0 || !(TrialRange{N: s.N}).Covers(plan.Injection) {
		return fmt.Errorf("fleet: plan injection range %+v escapes the sweep's [0, %d)", plan.Injection, s.N)
	}
	if plan.Beam.N < 0 || plan.Beam.Offset < 0 || !(TrialRange{N: s.BeamRuns}).Covers(plan.Beam) {
		return fmt.Errorf("fleet: plan beam range %+v escapes the sweep's [0, %d)", plan.Beam, s.BeamRuns)
	}
	return nil
}

// CheckPartial reports the first way p is not the partial plan of spec —
// the one check every partial a job meets passes, whether a worker wrote
// it, a checkpoint banked it, a cached artifact was sliced into it or a
// merge is about to fold it. p must be tagged with exactly plan, plan must
// be a well-formed shard of spec, p must record the same sweep (equal
// CanonicalHash, the content address: pool size, hooks and an unused list
// written as [] rather than left out do not count), and its cells must be
// spec's grid, in order, with a result in exactly the cells whose range is
// not empty.
func CheckPartial(spec Sweep, plan ShardPlan, p *SweepResult) error {
	return checkerOf(spec).check(plan, p)
}

// partialChecker is CheckPartial with spec's content address and grids
// derived once, so a fold checks K parts with K+1 CanonicalHash calls.
type partialChecker struct {
	spec      Sweep
	hash      string
	cells     []CellSpec
	beamCells []BeamCellSpec
}

func checkerOf(spec Sweep) partialChecker {
	return partialChecker{spec, spec.CanonicalHash(), spec.Cells(), spec.BeamCells()}
}

func (c partialChecker) check(plan ShardPlan, p *SweepResult) error {
	if p.Shard == nil {
		return fmt.Errorf("fleet: not a shard partial (already merged or monolithic)")
	}
	if *p.Shard != plan {
		return fmt.Errorf("fleet: partial is plan %s %+v, want %s %+v", p.Shard, *p.Shard, plan, plan)
	}
	if err := c.spec.checkPlan(plan); err != nil {
		return err
	}
	if got := p.Spec.CanonicalHash(); got != c.hash {
		what := "trial counts"
		if p.Spec.CanonicalHashBase() != c.spec.CanonicalHashBase() {
			what = "base identity (grid, seeds or inputs)"
		}
		return fmt.Errorf("fleet: partial %s ran sweep %.12s…, want %.12s…: a different %s", plan, got, c.hash, what)
	}
	if err := checkCells("injection", p.Cells, c.cells, plan.Injection); err != nil {
		return fmt.Errorf("fleet: partial %s: %w", plan, err)
	}
	if err := checkCells("beam", p.BeamCells, c.beamCells, plan.Beam); err != nil {
		return fmt.Errorf("fleet: partial %s: %w", plan, err)
	}
	return nil
}

// checkCells reports the first way cells is not grid run over r: a cell
// count or spec that differs from the grid's, or a result missing from a
// cell of a non-empty range or present in one of an empty range.
func checkCells[C interface{ split() (S, R) }, S, R comparable](kind string, cells []C, grid []S, r TrialRange) error {
	if len(cells) != len(grid) {
		return fmt.Errorf("%d %s cells, grid has %d", len(cells), kind, len(grid))
	}
	var none R
	for i, want := range grid {
		got, res := cells[i].split()
		switch {
		case got != want:
			return fmt.Errorf("%s cell %d is %+v, grid says %+v", kind, i, got, want)
		case res == none && !r.Empty():
			return fmt.Errorf("%s cell %d has no result, but range %+v is not empty", kind, i, r)
		case res != none && r.Empty():
			return fmt.Errorf("%s cell %d has a result, but its range is empty", kind, i)
		}
	}
	return nil
}

// RunPlan executes an explicit shard plan: the full grid of both cell
// kinds, each cell restricted to exactly plan's trial ranges (a cell whose
// range is empty lands in the partial with a nil Result), tagged with the
// plan. It is RunPlanCheckpointed with no checkpoint. The partial folds
// with any other partials that complete the partition, bit-identical to
// the monolithic run (trial i of a cell seeds identically no matter which
// plan computes it).
func (s Sweep) RunPlan(ctx context.Context, plan ShardPlan) (*SweepResult, error) {
	return s.RunPlanCheckpointed(ctx, plan, Checkpoint{})
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
	plans := []ShardPlan{{Count: count, Injection: TrialRange{N: injCovered}, Beam: TrialRange{N: beamCovered}}}
	rest := ShardPlan{
		Count:     count,
		Injection: TrialRange{Offset: injCovered, N: ns.N - injCovered},
		Beam:      TrialRange{Offset: beamCovered, N: ns.BeamRuns - beamCovered},
	}
	for k := 1; k < count; k++ {
		plans = append(plans, rest.Split(k-1, fresh))
		plans[k].Index = k
	}
	return plans, nil
}

// MergeSweepResults folds the shard partials of one sweep back into a
// complete SweepResult, bit-identical (struct and JSON) to the monolithic
// Sweep.Run with the same spec. Before folding it validates compatibility:
// every part must be a shard partial of the same shard count, the shard
// indices must cover 0..K-1 exactly once, every part must pass
// CheckPartial against the first part's spec (one content address, so
// Workers, the execution hooks and an unused list written as [] may differ
// per shard), and the parts' plans — in index order — must tile the
// sweep's trial space exactly: contiguous from 0, no gaps, no overlaps,
// summing to N and BeamRuns. The balanced RunShard split satisfies this,
// and so does any finer or uneven partition, which is what lets the
// partial-overlap cache fold a cached prefix partial (SliceResult) with
// freshly computed suffix ranges (RunPlan). Parts are folded in shard
// order, so callers may pass them in any order.
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
	return foldTiling(ps, ps[0].Spec.Whole(), true)
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
// MergeShardPartials: each part, in the order given, must pass
// CheckPartial against the first part's spec and its own tag, and their
// ranges must tile span's two ranges exactly — contiguous from
// its offsets, no gaps, no overlaps, ending at its ends. Every cell then
// folds by Clone+Merge in that order; a dimension span leaves empty folds
// to nil-Result cells, as an empty-range run records them. With positional
// set the order is authoritative (parts keyed by shard index), so an empty
// range must also sit where the previous part ended; without it the parts
// are keyed by offset and an empty range has no position to check. The
// result carries the first part's spec and no shard tag.
func foldTiling(ps []*SweepResult, span ShardPlan, positional bool) (*SweepResult, error) {
	dims := [2]string{"injection", "beam"}
	want := [2]TrialRange{span.Injection, span.Beam}
	next := [2]int{want[0].Offset, want[1].Offset}
	chk := checkerOf(ps[0].Spec)
	for _, p := range ps {
		if err := chk.check(*p.Shard, p); err != nil {
			return nil, err
		}
		for d, r := range [2]TrialRange{p.Shard.Injection, p.Shard.Beam} {
			switch {
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
	cells, err := foldCells(ps, dims[0],
		func(p *SweepResult) []CellResult { return p.Cells },
		func(c CellSpec, r *core.CampaignResult) CellResult { return CellResult{CellSpec: c, Result: r} })
	if err != nil {
		return nil, err
	}
	beamCells, err := foldCells(ps, dims[1],
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

// foldCells folds one kind's per-part results into one result per cell by
// Clone+Merge in part order. The parts passed CheckPartial, so they carry
// one grid; a cell no part ran folds to a nil result.
func foldCells[C interface{ split() (S, R) }, S any, R tally[R]](ps []*SweepResult, kind string, cellsOf func(*SweepResult) []C, join func(S, R) C) ([]C, error) {
	grid := cellsOf(ps[0])
	if len(grid) == 0 {
		return nil, nil
	}
	var none R
	out := make([]C, len(grid))
	for i := range grid {
		c, _ := grid[i].split()
		acc := none
		for _, p := range ps {
			switch _, r := cellsOf(p)[i].split(); {
			case r == none:
			case acc == none:
				acc = r.Clone()
			default:
				if err := acc.Merge(r); err != nil {
					return nil, fmt.Errorf("fleet: %s cell %+v: %w", kind, c, err)
				}
			}
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
