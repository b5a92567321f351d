package fleet

import (
	"context"
	"fmt"
	"os"
	"reflect"
)

// Checkpoint/resume at trial-range granularity. A checkpoint is an ordinary
// shard partial (written atomically, readable by ReadShardFile) whose plan
// ranges are a contiguous prefix of the shard's plan: the trials completed
// so far. Resuming is therefore pure range algebra — ResumePlan subtracts
// the checkpointed prefix, the worker runs only the remainder, and
// MergeShardPartials folds prefix and remainder back into one partial
// indistinguishable from an uninterrupted run. The same fold also serves
// straggler re-splitting: a cancelled shard's checkpoint plus the stolen
// sub-ranges tile its plan exactly.

// WriteFileAtomic writes the result to path via a sibling temp file and a
// rename, so a concurrent reader (or a crash mid-write) never observes a
// half-written artifact — the durability contract checkpoint files and
// re-split partials are published under.
func (r *SweepResult) WriteFileAtomic(path string) error {
	tmp := path + ".tmp"
	if err := r.WriteFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// ResumePlan subtracts a checkpointed prefix from a shard plan: done must
// sit at plan's position and cover a (possibly empty) prefix of each of
// plan's trial ranges, and the returned plan is what remains to compute.
// The pair (done, remainder) tiles plan exactly, so partials for the two
// fold back with MergeShardPartials into the full shard partial.
func ResumePlan(plan, done ShardPlan) (ShardPlan, error) {
	if done.Index != plan.Index || done.Count != plan.Count {
		return ShardPlan{}, fmt.Errorf("fleet: checkpoint is for shard %s, plan is shard %s", done, plan)
	}
	rest := plan
	var err error
	if rest.Injection, err = resumeRange("injection", plan.Injection, done.Injection); err != nil {
		return ShardPlan{}, err
	}
	if rest.Beam, err = resumeRange("beam", plan.Beam, done.Beam); err != nil {
		return ShardPlan{}, err
	}
	return rest, nil
}

// resumeRange returns what remains of full after its checkpointed prefix
// done. An empty done leaves full untouched; a non-empty done must start
// exactly at full's offset and stay inside it.
func resumeRange(kind string, full, done TrialRange) (TrialRange, error) {
	if done.N < 0 {
		return TrialRange{}, fmt.Errorf("fleet: checkpointed %s range %+v has negative length", kind, done)
	}
	if done.Empty() {
		return full, nil
	}
	if done.Offset != full.Offset || done.End() > full.End() {
		return TrialRange{}, fmt.Errorf("fleet: checkpointed %s range %+v is not a prefix of the plan's %+v", kind, done, full)
	}
	return TrialRange{Offset: done.End(), N: full.End() - done.End()}, nil
}

// MergeShardPartials folds partials that together cover exactly one shard's
// plan — a checkpoint prefix plus the ranges computed after it, or the
// sub-partials of a re-split straggler — into a single partial tagged with
// plan. Unlike MergeSweepResults, which folds a whole sweep keyed by shard
// index, every part here shares plan's Index/Count and the parts are keyed
// purely by their trial ranges: sorted by range, the non-empty ranges of
// each dimension must tile plan's corresponding range contiguously and
// exactly. Cells fold by the same Clone+Merge algebra the whole-sweep merge
// uses, so the result is bit-identical to running plan uninterrupted; a
// dimension plan itself leaves empty folds to nil-Result cells, exactly as
// an uninterrupted empty-range run records them.
func MergeShardPartials(plan ShardPlan, parts ...*SweepResult) (*SweepResult, error) {
	ps, err := sortedPartials(parts, func(a, b *ShardPlan) bool {
		if a.Injection.Offset != b.Injection.Offset {
			return a.Injection.Offset < b.Injection.Offset
		}
		return a.Beam.Offset < b.Beam.Offset
	})
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		if p.Shard.Index != plan.Index || p.Shard.Count != plan.Count {
			return nil, fmt.Errorf("fleet: partial %+v + %+v is for shard %s, want shard %s", p.Shard.Injection, p.Shard.Beam, p.Shard, plan)
		}
	}
	out, err := foldTiling(ps, plan, false)
	if err != nil {
		return nil, err
	}
	out.Shard = &plan
	return out, nil
}

// LoadCheckpoint reads a checkpoint artifact and validates it against the
// sweep and shard plan it claims to prefix: it must be a shard partial at
// plan's position, recording the same normalized spec (Workers and Progress
// are execution details), its ranges must be a prefix of plan's (ResumePlan
// computes the remainder), and its cell grid must match the spec's with a
// result present wherever the checkpointed range is non-empty. It returns
// the checkpoint partial and the remainder plan still to compute. Any
// defect — missing file, truncation, corruption, a stale plan from an older
// submission — is an error, never a panic, so callers degrade to running
// the full plan rather than poisoning a merge.
func LoadCheckpoint(path string, spec Sweep, plan ShardPlan) (*SweepResult, ShardPlan, error) {
	ck, err := ReadShardFile(path)
	if err != nil {
		return nil, ShardPlan{}, err
	}
	want := spec.normalized().identity()
	if !reflect.DeepEqual(want, ck.Spec.identity()) {
		return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s was written for a different sweep spec", path)
	}
	rest, err := ResumePlan(plan, *ck.Shard)
	if err != nil {
		return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	grid := want.Cells()
	if len(ck.Cells) != len(grid) {
		return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s has %d injection cells, grid has %d", path, len(ck.Cells), len(grid))
	}
	for i, c := range grid {
		if ck.Cells[i].CellSpec != c {
			return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s cell %d is %+v, grid says %+v", path, i, ck.Cells[i].CellSpec, c)
		}
		if ck.Cells[i].Result == nil && !ck.Shard.Injection.Empty() {
			return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s claims injection range %+v but cell %d has no result", path, ck.Shard.Injection, i)
		}
	}
	beamGrid := want.BeamCells()
	if len(ck.BeamCells) != len(beamGrid) {
		return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s has %d beam cells, grid has %d", path, len(ck.BeamCells), len(beamGrid))
	}
	for j, c := range beamGrid {
		if ck.BeamCells[j].BeamCellSpec != c {
			return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s beam cell %d is %+v, grid says %+v", path, j, ck.BeamCells[j].BeamCellSpec, c)
		}
		if ck.BeamCells[j].Result == nil && !ck.Shard.Beam.Empty() {
			return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s claims beam range %+v but cell %d has no result", path, ck.Shard.Beam, j)
		}
	}
	return ck, rest, nil
}

// Checkpoint configures RunPlanCheckpointed: where periodic checkpoints
// land, how often, and what (if anything) to resume from.
type Checkpoint struct {
	// Out is the checkpoint artifact path (written atomically after every
	// chunk except the last; readable by ReadShardFile). Empty disables
	// checkpoint writes, and with them chunking.
	Out string
	// Every is the checkpoint cadence in trials: the work left after any
	// resume is cut into ceil(span/Every) chunks, span being the larger of
	// its injection and beam extents, and a checkpoint lands between chunks.
	// <= 0 disables chunking. Chunks cost their trials only: all of them
	// run on one runner list, so golden runs do not multiply with them.
	Every int
	// Resume, when non-empty, names a checkpoint to resume from. A missing,
	// corrupt, truncated or plan-mismatched checkpoint is logged and
	// ignored — the run degrades to the full plan, it never fails or
	// poisons the result.
	Resume string
	// Logf, when non-nil, receives resume and degradation diagnostics and
	// one line for every checkpoint write that fails.
	Logf func(format string, args ...any)
	// OnCheckpoint, when non-nil, is called after each checkpoint artifact
	// has landed, with the plan prefix the artifact covers. It is not
	// called for a write that failed.
	OnCheckpoint func(covered ShardPlan)
}

// RunPlanCheckpointed executes an explicit shard plan like RunPlan, but in
// checkpoint-cadence chunks: after each chunk the folded prefix partial is
// written atomically to ck.Out, so a killed worker leaves behind a valid
// artifact covering the contiguous trial prefix it completed. With
// ck.Resume set the run first subtracts a previous attempt's checkpoint and
// computes only the remainder. A checkpoint write that fails is logged and
// the run goes on: it costs resumability, not correctness. The returned
// result is bit-identical — struct and JSON — to an uninterrupted RunPlan
// of the same plan: chunking, checkpointing and resuming are pure execution
// detail.
func (s Sweep) RunPlanCheckpointed(ctx context.Context, plan ShardPlan, ck Checkpoint) (*SweepResult, error) {
	if err := s.CheckPlan(plan); err != nil {
		return nil, err
	}
	logf := ck.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var acc *SweepResult
	work := plan
	if ck.Resume != "" {
		part, rest, err := LoadCheckpoint(ck.Resume, s, plan)
		if err != nil {
			logf("checkpoint %s unusable, running the full plan: %v", ck.Resume, err)
		} else {
			acc, work = part, rest
			logf("shard %s resuming from checkpoint: %d injection + %d beam trials already done, %d + %d to run",
				plan, part.Shard.Injection.N, part.Shard.Beam.N, rest.Injection.N, rest.Beam.N)
		}
	}
	if work.Injection.Empty() && work.Beam.Empty() {
		if acc != nil {
			// The checkpoint already covers the whole plan; fold it alone to
			// re-tag and revalidate it as the full shard partial.
			return MergeShardPartials(plan, acc)
		}
		return s.run(ctx, &plan)
	}
	span := work.Injection.N
	if work.Beam.N > span {
		span = work.Beam.N
	}
	chunks := 1
	if ck.Out != "" && ck.Every > 0 && span > ck.Every {
		chunks = (span + ck.Every - 1) / ck.Every
	}
	// One runner list serves every chunk: the demand of all of them is
	// declared before the first runs, so a runner built in chunk 0 is still
	// there for the last, and the shard performs at most Workers golden runs
	// per benchmark however finely it checkpoints.
	chunkPlans := make([]*ShardPlan, chunks)
	for c := range chunkPlans {
		chunkPlans[c] = &ShardPlan{
			Index:     plan.Index,
			Count:     plan.Count,
			Injection: work.Injection.Split(c, chunks),
			Beam:      work.Beam.Split(c, chunks),
		}
	}
	rs := s.newRunners(chunkPlans...)
	defer rs.Close()
	progress := s.Progress
	for c, chunkPlan := range chunkPlans {
		s2 := s
		if progress != nil && chunks > 1 {
			// Progress must read as one continuous run, not restart per
			// chunk: report cells-completed across all fresh chunks.
			cc := c
			s2.Progress = func(done, total int) {
				progress(cc*total+done, chunks*total)
			}
		}
		res, err := s2.runCells(ctx, chunkPlan, rs)
		if err != nil {
			return nil, err
		}
		// The covered prefix grows monotonically: chunk ranges are
		// contiguous, so this chunk's End is the prefix end even when the
		// chunk's slice of a dimension is empty.
		covered := ShardPlan{
			Index:     plan.Index,
			Count:     plan.Count,
			Injection: TrialRange{Offset: plan.Injection.Offset, N: chunkPlan.Injection.End() - plan.Injection.Offset},
			Beam:      TrialRange{Offset: plan.Beam.Offset, N: chunkPlan.Beam.End() - plan.Beam.Offset},
		}
		if acc == nil {
			acc = res
		} else {
			acc, err = MergeShardPartials(covered, acc, res)
			if err != nil {
				return nil, fmt.Errorf("fleet: folding checkpoint chunks: %w", err)
			}
		}
		if ck.Out != "" && c < chunks-1 {
			if err := acc.WriteFileAtomic(ck.Out); err != nil {
				// A failed checkpoint write costs resumability, not
				// correctness; the run continues.
				logf("shard %s: checkpoint write failed: %v", plan, err)
			} else if ck.OnCheckpoint != nil {
				ck.OnCheckpoint(*acc.Shard)
			}
		}
	}
	return acc, nil
}
