package distrib

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

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

// supervise drives one shard through its attempt budget. A partial means
// it landed and validated, and is the value validation decoded (folded
// with the shard's banks when it has any); a shardError is a permanent
// failure. A shard aborted because the whole job was cancelled is neither:
// both are nil.
//
// When the task checkpoints (CheckpointPath set), every relaunch first
// banks the checkpoint the failed attempt left (bank), so the new attempt
// is launched on only the remainder of the shard's plan: identical failure
// classification, strictly fewer recomputed trials.
func (r *jobRun) supervise(sr *shardRun) (*fleet.SweepResult, *shardError) {
	tail := &tailBuffer{max: tailBytes}
	logf := r.opts.Logf
	t := &sr.task
	if t.CheckpointPath != "" {
		// A checkpoint left by an earlier fan-out in the same directory
		// must not masquerade as this run's progress.
		os.Remove(t.CheckpointPath)
	}
	for attempt := 0; ; attempt++ {
		t.Attempt = attempt
		if attempt > 0 {
			r.table.reset(sr.key)
			if t.CheckpointPath != "" {
				if banked := r.bank(sr); banked > 0 {
					r.job.resumed.Add(int64(banked))
					logf("shard %s: banked %d trials from checkpoint %s, relaunching on the rest",
						t.ShardArg(), banked, t.CheckpointPath)
				}
			}
			delay := backoffDelay(r.opts.Backoff, attempt)
			logf("shard %s: retry %d/%d in %s", t.ShardArg(), attempt, r.opts.Retries, delay)
			if sleepCtx(sr.ctx, delay) != nil {
				return nil, nil // job cancelled while backing off
			}
		} else {
			logf("shard %s: launching", t.ShardArg())
		}
		part, err := r.launchOnce(sr.ctx, *t, sr.key, tail)
		if err == nil && len(sr.banks) > 0 {
			part, err = r.fold(sr, []*fleet.SweepResult{part})
		}
		if err == nil {
			logf("shard %s: partial validated (%s)", t.ShardArg(), t.OutPath)
			if t.CheckpointPath != "" {
				os.Remove(t.CheckpointPath) // spent; the partial supersedes it
			}
			return part, nil
		}
		if sr.ctx.Err() != nil {
			// The job is shutting down; the abort is not this shard's
			// fault and retrying against a dead context is pointless.
			return nil, nil
		}
		logf("shard %s: attempt %d failed: %v", t.ShardArg(), attempt+1, err)
		if attempt >= r.opts.Retries {
			return nil, &shardError{task: *t, err: err, tail: tail.String()}
		}
	}
}

// bank loads the shard's newest checkpoint, once, appends it to the
// shard's banks and narrows the task's plan to what the banks leave; it
// returns the cell-weighted trials the checkpoint added. A checkpoint that
// cannot be read banks nothing and the shard recomputes all the banks
// leave, said in one line naming the path: on an ssh host or in a pod the
// checkpoint is written where the worker runs, out of the supervisor's
// reach.
func (r *jobRun) bank(sr *shardRun) int {
	t := &sr.task
	ck, rest, err := fleet.LoadCheckpoint(t.CheckpointPath, r.spec, *t.Plan)
	if err != nil {
		r.opts.Logf("shard %s: no readable checkpoint at %s, recomputing the %d trials its banks leave",
			t.ShardArg(), t.CheckpointPath, r.spec.Trials(*t.Plan))
		return 0
	}
	// Banked: the next attempt checkpoints its own remainder, and this
	// checkpoint must not be read against it.
	os.Remove(t.CheckpointPath)
	sr.banks, t.Plan = append(sr.banks, ck), &rest
	return r.spec.Trials(*ck.Shard)
}

// fold folds the shard's banks and the partials computed past them into
// the partial of the shard's whole plan, one MergeShardPartials that checks
// every piece tiles the plan, and lands it atomically at the shard's
// partial path: the one fold a relaunched and a stolen shard share, so the
// job's merge reads the shard as if it had run uninterrupted.
func (r *jobRun) fold(sr *shardRun, parts []*fleet.SweepResult) (*fleet.SweepResult, error) {
	full, err := fleet.MergeShardPartials(*sr.plan, append(parts, sr.banks...)...)
	if err != nil {
		return nil, err
	}
	return full, fleet.WriteAtomic(sr.task.OutPath, full.WriteJSON)
}

// launchOnce runs one attempt: stale-partial removal, launch under the
// per-attempt timeout, stderr demux (progress events to the worker table,
// the rest to the failure tail), and artifact validation against the job's
// spec, which returns the partial it decoded.
func (r *jobRun) launchOnce(ctx context.Context, t Task, key int, tail *tailBuffer) (*fleet.SweepResult, error) {
	// A partial left by a killed or crashed prior attempt must never pass
	// for this attempt's output.
	if err := os.Remove(t.OutPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("removing stale partial: %w", err)
	}
	actx := ctx
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}
	lw := &lineWriter{fn: func(line []byte) {
		if ev, ok := parseEvent(line); ok {
			r.table.report(key, ev.Done, ev.Total, time.Now())
			return
		}
		tail.writeLine(line)
	}}
	err := r.opts.Launcher.Launch(actx, t, lw)
	lw.Flush()
	if err != nil {
		if actx.Err() != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("attempt timed out after %s", r.opts.Timeout)
		}
		return nil, err
	}
	return validatePartial(r.spec, t)
}

// validatePartial confirms the attempt left a parseable partial of this
// task's plan of spec — a worker that exits 0 with a truncated,
// mislabelled or missing artifact, or one of another sweep, has failed
// exactly as hard as a crash, it just doesn't know it. The partial it
// returns is the job's one decode of it: the merge folds that value and
// never re-reads the file.
func validatePartial(spec fleet.Sweep, t Task) (*fleet.SweepResult, error) {
	r, err := fleet.ReadShardFile(t.OutPath)
	if err != nil {
		return nil, fmt.Errorf("worker exited cleanly but its partial is unusable: %w", err)
	}
	// The worker must have run exactly the position and ranges it was
	// handed, over the job's own sweep: a partial with the wrong ones
	// would survive until the merge, which would reject the whole job
	// instead of naming the one bad worker.
	if *r.Shard != *t.Plan {
		return nil, fmt.Errorf("worker ran plan %s %+v, want %s %+v", r.Shard, *r.Shard, t.ShardArg(), *t.Plan)
	}
	if err := fleet.CheckPartial(spec, *t.Plan, r); err != nil {
		return nil, fmt.Errorf("worker exited cleanly but its partial is not of this job's sweep: %w", err)
	}
	return r, nil
}
