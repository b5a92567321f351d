package fleet

import (
	"context"
	"fmt"
)

// Checkpoint/resume at trial-range granularity. A checkpoint is an ordinary
// shard partial (written atomically, readable by ReadShardFile) whose plan
// ranges are a contiguous prefix of the shard's plan: the trials completed
// so far. Resuming is therefore pure range algebra — LoadCheckpoint
// subtracts the checkpointed prefix, a worker runs only the remainder, and
// MergeShardPartials folds prefix and remainder back into one partial
// indistinguishable from an uninterrupted run. The same fold also serves
// straggler re-splitting: a cancelled shard's checkpoint plus the stolen
// sub-ranges tile its plan exactly. The reader is the fan-out supervisor;
// a worker only writes checkpoints.

// resumePlan subtracts a checkpointed prefix from a shard plan: done must
// sit at plan's position and cover a (possibly empty) prefix of each of
// plan's trial ranges, and the returned plan is what remains to compute.
// The pair (done, remainder) tiles plan exactly, so partials for the two
// fold back with MergeShardPartials into the full shard partial.
func resumePlan(plan, done ShardPlan) (ShardPlan, error) {
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
// sweep and shard plan it claims to prefix: its ranges must be a prefix of
// plan's at plan's position (resumePlan computes the remainder), and it
// must pass CheckPartial for spec and its own ranges — the same sweep by
// content address, the spec's grid with a result wherever the checkpointed
// range is not empty. It returns the checkpoint partial and the remainder
// plan still to compute. Any defect — missing file, truncation,
// corruption, a stale plan from an older submission — is an error, never a
// panic, so callers degrade to running the full plan rather than poisoning
// a merge.
func LoadCheckpoint(path string, spec Sweep, plan ShardPlan) (*SweepResult, ShardPlan, error) {
	ck, err := ReadShardFile(path)
	if err != nil {
		return nil, ShardPlan{}, err
	}
	rest, err := resumePlan(plan, *ck.Shard)
	if err == nil {
		err = CheckPartial(spec, *ck.Shard, ck)
	}
	if err != nil {
		return nil, ShardPlan{}, fmt.Errorf("fleet: checkpoint %s: %w", path, err)
	}
	return ck, rest, nil
}

// Checkpoint configures RunPlanCheckpointed: where periodic checkpoints
// land and how often.
type Checkpoint struct {
	// Out is the checkpoint artifact path (written atomically after every
	// chunk except the last; readable by ReadShardFile). Empty disables
	// checkpoint writes, and with them chunking.
	Out string
	// Every is the checkpoint cadence in trials: the plan is cut into
	// ceil(span/Every) chunks, span being the larger of its injection and
	// beam extents, and a checkpoint lands between chunks.
	// <= 0 disables chunking. Chunks cost their trials only: all of them
	// run on one runner list, so golden runs do not multiply with them.
	Every int
	// Logf, when non-nil, receives one line for every checkpoint write
	// that fails.
	Logf func(format string, args ...any)
	// OnCheckpoint, when non-nil, is called after each checkpoint artifact
	// has landed, with the plan prefix the artifact covers. It is not
	// called for a write that failed.
	OnCheckpoint func(covered ShardPlan)
}

// RunPlanCheckpointed is the one body every shard runs: an explicit shard
// plan, the full grid of both cell kinds each restricted to plan's trial
// ranges, in checkpoint-cadence chunks. After each chunk the folded prefix
// partial is written atomically to ck.Out, so a killed worker leaves behind
// a valid artifact covering the contiguous trial prefix it completed; a
// relaunch runs the remainder LoadCheckpoint leaves as a plan of its own. A
// checkpoint write that fails is logged and the run goes on: it costs
// resumability, not correctness. With an empty Checkpoint it is one chunk,
// a plain run (RunPlan). The returned result is bit-identical — struct and
// JSON — whatever the Checkpoint: chunking and checkpointing are pure
// execution detail.
func (s Sweep) RunPlanCheckpointed(ctx context.Context, plan ShardPlan, ck Checkpoint) (*SweepResult, error) {
	if err := s.checkPlan(plan); err != nil {
		return nil, err
	}
	logf := ck.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var acc *SweepResult
	span := max(plan.Injection.N, plan.Beam.N)
	chunks := 1
	if ck.Out != "" && ck.Every > 0 && span > ck.Every {
		chunks = (span + ck.Every - 1) / ck.Every
	}
	// One runner list serves every chunk: the demand of all of them is
	// declared before the first runs, so a runner built in chunk 0 is still
	// there for the last, and the shard performs at most Workers golden runs
	// per benchmark however finely it checkpoints.
	chunkPlans := make([]ShardPlan, chunks)
	for c := range chunkPlans {
		chunkPlans[c] = plan.Split(c, chunks)
	}
	rs := s.newRunners(chunkPlans...)
	defer rs.Close()
	progress := s.Progress
	for c, chunkPlan := range chunkPlans {
		s2 := s
		if progress != nil && chunks > 1 {
			// Progress must read as one continuous run, not restart per
			// chunk: report cells-completed across all chunks.
			s2.Progress = func(done, total int) { progress(c*total+done, chunks*total) }
		}
		res, err := s2.runCells(ctx, chunkPlan, rs)
		if err != nil {
			return nil, err
		}
		// The covered prefix grows monotonically: chunk ranges are
		// contiguous, so this chunk's End is the prefix end even when the
		// chunk's slice of a dimension is empty.
		covered := plan
		covered.Injection.N = chunkPlan.Injection.End() - plan.Injection.Offset
		covered.Beam.N = chunkPlan.Beam.End() - plan.Beam.Offset
		if acc == nil {
			acc = res
		} else {
			acc, err = MergeShardPartials(covered, acc, res)
			if err != nil {
				return nil, fmt.Errorf("fleet: folding checkpoint chunks: %w", err)
			}
		}
		if ck.Out != "" && c < chunks-1 {
			if err := WriteAtomic(ck.Out, acc.WriteJSON); err != nil {
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
