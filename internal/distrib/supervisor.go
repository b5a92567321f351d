package distrib

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"phirel/internal/fleet"
)

// tailBytes bounds the per-shard stderr tail kept for failure reports.
const tailBytes = 4 << 10

// shardError is one shard's permanent failure, carrying the diagnostic
// stderr tail accumulated across its attempts.
type shardError struct {
	task Task
	err  error
	tail string
}

func (e *shardError) Error() string {
	s := fmt.Sprintf("shard %s failed after %d attempt(s): %v", e.task.ShardArg(), e.task.Attempt+1, e.err)
	if e.tail != "" {
		s += "\n  stderr tail:\n    " + strings.ReplaceAll(e.tail, "\n", "\n    ")
	}
	return s
}

// Run fans the sweep out opts.Shards ways, supervises the workers, and
// folds their validated partials into one merged SweepResult —
// byte-identical to the monolithic spec.Run with the same spec. Every
// shard runs to its own conclusion (success, or permanent failure after
// the retry budget); when any shard fails permanently the returned error
// lists every failed shard with its stderr tail, so one flaky host never
// hides another's diagnosis. Cancelling ctx stops all workers.
//
// Run is the one-shot compatibility form of the resident Scheduler:
// submit one job, wait for it. The spec file and shard partials land
// directly in opts.Dir (a Scheduler's own jobs get per-job
// subdirectories), so existing callers and their evidence trails are
// unchanged.
func Run(ctx context.Context, spec fleet.Sweep, opts Options) (*fleet.SweepResult, error) {
	sched, err := NewScheduler(opts)
	if err != nil {
		return nil, err
	}
	defer sched.Close()
	sched.oneShot = true
	job, err := sched.Submit(spec, nil, nil)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, job.Cancel)
	defer stop()
	res, err := job.Wait(ctx)
	// A job cancelled because ctx ended reports the caller's context error
	// (DeadlineExceeded stays DeadlineExceeded), as the one-shot form
	// always has.
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return res, err
}

// superviseShard drives one shard through its attempt budget. A partial
// means it landed and validated, and is the value validation decoded; a
// shardError is a permanent failure. A shard aborted because the whole job
// was cancelled is neither: both are nil. key
// is the task's progress-mux identity — the shard index for primary
// workers, a key past the primaries for a re-split straggler's children.
// opts.Logf must be non-nil.
//
// When the task checkpoints (CheckpointPath set), every relaunch first
// looks for a valid checkpoint from the failed attempt: if one covers a
// non-empty prefix of the shard's plan, the new attempt resumes from it —
// identical failure classification, strictly fewer recomputed trials.
func superviseShard(ctx context.Context, t Task, opts Options, mux *progressMux, key int) (*fleet.SweepResult, *shardError) {
	tail := &tailBuffer{max: tailBytes}
	logf := opts.Logf
	if t.CheckpointPath != "" {
		// A checkpoint left by an earlier fan-out in the same directory
		// must not masquerade as this run's progress.
		os.Remove(t.CheckpointPath)
	}
	for attempt := 0; ; attempt++ {
		t.Attempt = attempt
		t.ResumeFrom = ""
		if attempt > 0 {
			mux.reset(key)
			if t.CheckpointPath != "" {
				if salvaged, ok := resumableTrials(t); ok {
					t.ResumeFrom = t.CheckpointPath
					mux.addResumed(salvaged)
					logf("shard %s: resuming from checkpoint %s (%d trials already banked)",
						t.ShardArg(), t.CheckpointPath, salvaged)
				}
			}
			delay := backoffDelay(opts.Backoff, attempt)
			logf("shard %s: retry %d/%d in %s", t.ShardArg(), attempt, opts.Retries, delay)
			if sleepCtx(ctx, delay) != nil {
				return nil, nil // job cancelled while backing off
			}
		} else {
			logf("shard %s: launching", t.ShardArg())
		}
		part, err := launchOnce(ctx, t, opts, mux, key, tail)
		if err == nil {
			logf("shard %s: partial validated (%s)", t.ShardArg(), t.OutPath)
			if t.CheckpointPath != "" {
				os.Remove(t.CheckpointPath) // spent; the partial supersedes it
			}
			return part, nil
		}
		if ctx.Err() != nil {
			// The job is shutting down; the abort is not this shard's
			// fault and retrying against a dead context is pointless.
			return nil, nil
		}
		logf("shard %s: attempt %d failed: %v", t.ShardArg(), attempt+1, err)
		if attempt >= opts.Retries {
			return nil, &shardError{task: t, err: err, tail: tail.String()}
		}
	}
}

// resumableTrials reports how many cell-weighted trials the task's valid
// checkpoint banks; ok is false when there is nothing valid to resume and
// the attempt recomputes from zero.
func resumableTrials(t Task) (int, bool) {
	spec, _, _, ck, err := readCheckpoint(t)
	if err != nil || ck == nil {
		return 0, false
	}
	salvaged := cellTrials(spec, *ck.Shard)
	return salvaged, salvaged > 0
}

// readCheckpoint reads the task's spec and loads its checkpoint against the
// task's plan: ck is the banked partial and rest the plan past it, or ck is
// nil and rest the whole plan when no valid checkpoint is on disk. err
// reports only a spec that cannot be read.
func readCheckpoint(t Task) (spec fleet.Sweep, plan, rest fleet.ShardPlan, ck *fleet.SweepResult, err error) {
	if spec, err = fleet.ReadSpecFile(t.SpecPath); err != nil {
		return
	}
	plan, rest = *t.Plan, *t.Plan
	if t.CheckpointPath != "" {
		if c, r, lerr := fleet.LoadCheckpoint(t.CheckpointPath, spec, plan); lerr == nil {
			ck, rest = c, r
		}
	}
	return
}

// cellTrials counts a plan's cell-weighted trials: injection trials ×
// injection cells + beam runs × beam cells, the unit of the trialsResumed
// and trialsStolen counters.
func cellTrials(spec fleet.Sweep, p fleet.ShardPlan) int {
	return p.Injection.N*len(spec.Cells()) + p.Beam.N*len(spec.BeamCells())
}

// launchOnce runs one attempt: stale-partial removal, launch under the
// per-attempt timeout, stderr demux (progress events to the mux, the rest
// to the failure tail), and artifact validation, which returns the partial
// it decoded.
func launchOnce(ctx context.Context, t Task, opts Options, mux *progressMux, key int, tail *tailBuffer) (*fleet.SweepResult, error) {
	// A partial left by a killed or crashed prior attempt must never pass
	// for this attempt's output.
	if err := os.Remove(t.OutPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("removing stale partial: %w", err)
	}
	actx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	lw := &lineWriter{fn: func(line []byte) {
		if ev, ok := parseEvent(line); ok {
			mux.report(key, ev.Done, ev.Total)
			return
		}
		tail.writeLine(line)
	}}
	err := opts.Launcher.Launch(actx, t, lw)
	lw.Flush()
	if err != nil {
		if actx.Err() != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("attempt timed out after %s", opts.Timeout)
		}
		return nil, err
	}
	return validatePartial(t)
}

// validatePartial confirms the attempt left a parseable partial tagged as
// this task's shard — a worker that exits 0 with a truncated, mislabelled
// or missing artifact has failed exactly as hard as a crash, it just
// doesn't know it. The partial it returns is the job's one decode of it:
// the merge folds that value and never re-reads the file.
func validatePartial(t Task) (*fleet.SweepResult, error) {
	r, err := fleet.ReadShardFile(t.OutPath)
	if err != nil {
		return nil, fmt.Errorf("worker exited cleanly but its partial is unusable: %w", err)
	}
	// The worker must have run exactly the position and ranges it was
	// handed: a partial with the wrong ones would survive until the merge,
	// where the tiling check rejects the whole job instead of naming the
	// one bad worker.
	if *r.Shard != *t.Plan {
		return nil, fmt.Errorf("worker ran plan %s %+v, want %s %+v", r.Shard, *r.Shard, t.ShardArg(), *t.Plan)
	}
	return r, nil
}
