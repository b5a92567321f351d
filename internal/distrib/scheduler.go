package distrib

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phirel/internal/fleet"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// JobQueued: submitted, no shard has been granted a budget slot yet.
	JobQueued JobState = "queued"
	// JobRunning: at least one shard worker has started.
	JobRunning JobState = "running"
	// JobDone: every shard landed and the partials merged.
	JobDone JobState = "done"
	// JobFailed: at least one shard failed permanently (or the merge did).
	JobFailed JobState = "failed"
	// JobCancelled: the job was cancelled before it could finish.
	JobCancelled JobState = "cancelled"
)

// ErrResultSealed is what Wait and Result return for a done job that was
// submitted with a seal: the seal was the merged result's one reader, and
// the job kept none.
var ErrResultSealed = errors.New("distrib: a sealed job keeps no merged result")

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	// ID is the scheduler-assigned job identity.
	ID string `json:"id"`
	// State is the lifecycle position at snapshot time.
	State JobState `json:"state"`
	// Done and Total count grid cells across the job's whole fan-out
	// (Total is K times the sweep's cell count, like Progress samples).
	Done  int `json:"done"`
	Total int `json:"total"`
	// TrialsResumed counts cell-weighted trials the supervisor banked from
	// checkpoints when crashed/timed-out/preempted shards were relaunched —
	// work the fleet did not have to redo.
	TrialsResumed int64 `json:"trialsResumed,omitempty"`
	// TrialsStolen counts cell-weighted trials re-split off straggler
	// shards onto idle slots by the straggler watch.
	TrialsStolen int64 `json:"trialsStolen,omitempty"`
	// Err carries the failure text of a JobFailed job.
	Err string `json:"error,omitempty"`
}

// Job is one submitted sweep under a Scheduler: a handle for waiting,
// cancelling, and observing progress without disturbing sibling jobs.
type Job struct {
	id     string
	cancel context.CancelFunc
	seal   func(*Job, *fleet.SweepResult) error

	resumed atomic.Int64
	stolen  atomic.Int64

	mu    sync.Mutex
	state JobState
	done  int
	total int
	err   error
	// result is a done job's merged result, kept only when the job has no
	// seal: a sealed job hands it to its seal and keeps nothing.
	result *fleet.SweepResult
	// parts is the merge set, one slot per partial in merge order: a
	// partial-overlap job's cached prefix from the start, every other
	// partial once it has validated. Nil once the job finished.
	parts   []*fleet.SweepResult
	subs    map[int]chan Progress
	nextSub int

	finished chan struct{}
}

// ID returns the scheduler-assigned job identity.
func (j *Job) ID() string { return j.id }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Done: j.done, Total: j.total,
		TrialsResumed: j.resumed.Load(), TrialsStolen: j.stolen.Load(),
	}
	if j.err != nil && j.state == JobFailed {
		st.Err = j.err.Error()
	}
	return st
}

// Cancel stops the job: queued shards never launch, running workers are
// killed. Sibling jobs are untouched — each job supervises its shards
// under its own context. Cancelling a finished job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.finished }

// Wait blocks until the job finishes or ctx ends. A finished job returns
// its merged result or its permanent error; a done job submitted with a
// seal kept no result and returns ErrResultSealed. Cancellation — of the
// job or of ctx — surfaces as the respective context error.
func (j *Job) Wait(ctx context.Context) (*fleet.SweepResult, error) {
	select {
	case <-j.finished:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return j.Result()
}

// Result returns a terminal job's outcome without blocking; an unfinished
// job reports itself as such.
func (j *Job) Result() (*fleet.SweepResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobDone:
		if j.seal != nil {
			return nil, ErrResultSealed
		}
		return j.result, nil
	case JobFailed:
		return nil, j.err
	case JobCancelled:
		return nil, context.Canceled
	}
	return nil, fmt.Errorf("distrib: job %s has not finished", j.id)
}

// Partials returns the partials of a live job's merge set that are already
// answered — a partial-overlap job's cached prefix and every shard partial
// that has validated — in merge order, and live true. A finished job holds
// none and reports live false. The values are shared with the job's merge:
// callers must not modify them.
func (j *Job) Partials() (parts []*fleet.SweepResult, live bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, p := range j.parts {
		if p != nil {
			parts = append(parts, p)
		}
	}
	return parts, !j.state.Terminal()
}

// land files a validated partial at merge position k.
func (j *Job) land(k int, p *fleet.SweepResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.parts[k] = p
}

// Subscribe registers a progress listener: a channel of aggregated
// job-wide samples, closed when the job finishes. Slow listeners never
// block the supervisor — when a subscriber's buffer is full the oldest
// sample is dropped, so a reader always converges on the latest state.
// The returned stop function unregisters (idempotent, safe after close).
func (j *Job) Subscribe() (<-chan Progress, func()) {
	ch := make(chan Progress, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// emit is the job's progress sink: it folds the sample into the status
// snapshot and fans it out to subscribers (latest-wins on a full buffer).
// Called with the worker table's lock held, so delivery is serialised.
func (j *Job) emit(p Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = p.Done, p.Total
	for _, ch := range j.subs {
		select {
		case ch <- p:
		default:
			select { // drop the oldest sample, then retry once
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

// markRunning flips a queued job to running when its first shard starts.
func (j *Job) markRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobQueued {
		j.state = JobRunning
	}
}

// finish records the terminal state and releases waiters and subscribers.
func (j *Job) finish(state JobState, res *fleet.SweepResult, err error) {
	j.mu.Lock()
	j.state, j.result, j.err, j.parts = state, res, err, nil
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	j.mu.Unlock()
	close(j.finished)
}

// Scheduler is the resident form of the fan-out supervisor: jobs are
// submitted as sweeps, queued onto one shared concurrency budget
// (Options.MaxConcurrent shards in flight across every job, granted in
// strict submission order), supervised exactly like a one-shot Run —
// per-attempt timeouts, bounded retry with backoff, partial validation,
// stderr-tail evidence — and finished as merged SweepResults. Each job is
// independently cancellable; cancelling one never disturbs another. Run
// is a thin submit-then-wait wrapper over a single-job Scheduler, so both
// surfaces share one supervision path.
type Scheduler struct {
	opts   Options
	budget *budget
	ctx    context.Context
	stop   context.CancelFunc

	// oneShot marks Run's private scheduler: its one job works directly
	// in Options.Dir.
	oneShot bool

	mu     sync.Mutex
	seq    int
	closed bool
	wg     sync.WaitGroup
}

// NewScheduler validates opts and returns a resident scheduler ready for
// Submit. The caller owns Options.Dir (created if missing) and must Close
// the scheduler to stop its jobs.
func NewScheduler(opts Options) (*Scheduler, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Scheduler{
		opts:   opts,
		budget: newBudget(opts.MaxConcurrent),
		ctx:    ctx,
		stop:   stop,
	}, nil
}

// Submit queues spec as a new job in its own subdirectory of Options.Dir
// and returns immediately; the job runs as budget slots free up. With cached
// nil the job is cold: spec splits the scheduler's shard width ways. With
// cached — a complete, base-equal artifact covering a strict prefix of
// spec's trial space — shard 0 is already answered: the prefix is sliced
// into the job's first partial, held as a value, and the shard width splits
// only the missing trial ranges; the job's progress Total then counts only
// the fresh cells. Either way every worker is sent its explicit plan, and
// the merged result is byte-identical to a monolithic run of spec. seal,
// when non-nil, is the job's last step: it runs on the merged result before
// the job reads done, and an error from it ends the job failed. A sealed
// job keeps no merged result: the seal is its only reader, and Wait and
// Result of the done job return ErrResultSealed.
func (s *Scheduler) Submit(spec fleet.Sweep, cached *fleet.SweepResult, seal func(*Job, *fleet.SweepResult) error) (*Job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("distrib: scheduler is closed")
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	s.mu.Unlock()
	// Run's one-shot job works in Options.Dir itself and logs unprefixed,
	// so its evidence trail is where the caller pointed it.
	dir, logPrefix := filepath.Join(s.opts.Dir, id), id+": "
	if s.oneShot {
		dir, logPrefix = s.opts.Dir, ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	tasks, parts, err := layout(dir, spec, cached, s.opts.Shards)
	if err != nil {
		return nil, err
	}
	cellsPerShard := len(spec.Cells()) + len(spec.BeamCells())
	jctx, jcancel := context.WithCancel(s.ctx)
	job := &Job{
		id:       id,
		cancel:   jcancel,
		seal:     seal,
		state:    JobQueued,
		total:    cellsPerShard * len(tasks),
		parts:    parts,
		subs:     map[int]chan Progress{},
		finished: make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jcancel()
		return nil, errors.New("distrib: scheduler is closed")
	}
	// Tickets are enqueued here, in shard order, while still serialised
	// with other Submits: the shared budget is strictly FIFO across jobs,
	// so under a 1-slot budget job N+1 can never overtake job N.
	runs := make([]*shardRun, len(tasks))
	for k, t := range tasks {
		runs[k] = newShardRun(jctx, t, t.Shard, s.budget.enqueue())
	}
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runJob(jctx, job, spec, runs, logPrefix)
	return job, nil
}

// The straggler watch's two constants: a shard is lagging when its
// fractional progress rate falls below stealFactor times the fleet median,
// and a stolen shard's remainder is re-split stealWays ways.
const (
	stealFactor = 0.5
	stealWays   = 2
)

// shardRun is one worker of a job — a primary shard or a re-split child —
// with its budget ticket and its banks. Its progress and its outcome claim
// are its row in the job's worker table.
type shardRun struct {
	task   Task
	key    int // worker-table key
	tk     *ticket
	ctx    context.Context
	cancel context.CancelFunc

	// plan is the shard's whole plan; task.Plan is what the banks leave of
	// it, the plan its next worker runs.
	plan *fleet.ShardPlan
	// banks are the checkpoints the supervisor loaded for the shard, in
	// order: together they tile the prefix of plan that task.Plan follows.
	banks []*fleet.SweepResult
}

func newShardRun(parent context.Context, t Task, key int, tk *ticket) *shardRun {
	ctx, cancel := context.WithCancel(parent)
	return &shardRun{task: t, key: key, tk: tk, ctx: ctx, cancel: cancel, plan: t.Plan}
}

// jobRun is one job's supervision state, shared by every worker of its
// fan-out.
type jobRun struct {
	s     *Scheduler
	jctx  context.Context
	job   *Job
	opts  Options // Logf never nil
	table *workerTable
	spec  fleet.Sweep
}

// runJob supervises one job's fan-out to a terminal state.
func (s *Scheduler) runJob(jctx context.Context, job *Job, spec fleet.Sweep, runs []*shardRun, logPrefix string) {
	defer s.wg.Done()
	// A finished job's context is released, so the scheduler's context
	// holds no job that has ended.
	defer job.cancel()
	r := &jobRun{s: s, jctx: jctx, job: job, opts: s.opts, spec: spec}
	if logf := s.opts.Logf; logf != nil {
		r.opts.Logf = func(format string, args ...any) { logf(logPrefix+format, args...) }
	} else {
		r.opts.Logf = func(string, ...any) {}
	}
	sink := job.emit
	if outer := r.opts.Progress; outer != nil {
		sink = func(p Progress) {
			job.emit(p)
			outer(p)
		}
	}
	if r.opts.CheckpointEvery > 0 {
		// Elastic mode: every shard checkpoints next to its partial. The
		// .ckpt suffix keeps checkpoints out of the sweep-shard-*.json
		// globs that fleet-check and phi-merge fold.
		for _, sr := range runs {
			sr.task.CheckpointPath = sr.task.OutPath + ".ckpt"
			sr.task.CheckpointEvery = r.opts.CheckpointEvery
		}
	}
	r.table = newWorkerTable(len(spec.Cells())+len(spec.BeamCells()), sink)
	for _, sr := range runs {
		r.table.add(sr, true)
	}
	if r.opts.StealInterval > 0 && len(runs) > 1 {
		wctx, stopWatch := context.WithCancel(jctx)
		watched := make(chan struct{})
		go func() { defer close(watched); r.watch(wctx) }()
		defer func() { stopWatch(); <-watched }()
	}

	failures := r.runAll(runs, func(i int, p *fleet.SweepResult) { job.land(runs[i].task.Shard, p) })
	switch {
	case len(failures) > 0:
		msgs := make([]string, len(failures))
		for i, f := range failures {
			msgs[i] = f.Error()
		}
		job.finish(JobFailed, nil, fmt.Errorf("distrib: %d of %d shards failed permanently:\n%s",
			len(msgs), len(runs), strings.Join(msgs, "\n")))
	case jctx.Err() != nil:
		job.finish(JobCancelled, nil, context.Canceled)
	default:
		// Every lander has returned, so the merge set is settled.
		merged, err := fleet.MergeSweepResults(job.parts...)
		if err != nil {
			job.finish(JobFailed, nil, fmt.Errorf("distrib: folding shard partials: %w", err))
			return
		}
		if job.seal != nil {
			if err := job.seal(job, merged); err != nil {
				job.finish(JobFailed, nil, fmt.Errorf("distrib: sealing the merged result: %w", err))
				return
			}
			merged = nil
		}
		job.finish(JobDone, merged, nil)
	}
}

// watch is the straggler watch: on every interval it claims each lagging
// primary as stolen, which cancels the shard. A claimed row stops counting,
// so each shard is stolen at most once.
func (r *jobRun) watch(ctx context.Context) {
	ticker := time.NewTicker(r.opts.StealInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		for _, key := range r.table.lagging(time.Now(), r.opts.StealInterval) {
			r.table.claim(key, stolen)
		}
	}
}

// runAll runs every shard on its own goroutine, hands each validated
// partial to land with the shard's position in runs as it concludes, and
// returns the permanent failures in shard order once all of them have
// concluded.
func (r *jobRun) runAll(runs []*shardRun, land func(i int, p *fleet.SweepResult)) []*shardError {
	errs := make([]*shardError, len(runs))
	var wg sync.WaitGroup
	for i, sr := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p *fleet.SweepResult
			if p, errs[i] = r.run(sr); p != nil {
				land(i, p)
			}
		}()
	}
	wg.Wait()
	return slices.DeleteFunc(errs, func(e *shardError) bool { return e == nil })
}

// run is the one path every worker of a job takes, primary or re-split
// child: wait for its ticket, mark the job running, supervise the shard
// through its attempts, release the slot. A shard the straggler watch stole
// mid-run then re-splits its remainder on this goroutine. The partial it
// returns is the shard's validated partial, nil when the shard failed or
// its job was cancelled.
func (r *jobRun) run(sr *shardRun) (*fleet.SweepResult, *shardError) {
	defer sr.cancel()
	if r.s.budget.wait(sr.ctx, sr.tk) != nil {
		return nil, nil // job (or scheduler) cancelled while queued
	}
	r.job.markRunning()
	part, ferr := r.supervise(sr)
	r.s.budget.release()
	if r.table.claim(sr.key, finished) {
		return part, ferr
	}
	return r.resplit(sr)
}

// resplit finishes a stolen straggler: its newest valid checkpoint joins
// the shard's banks (losing zero completed trials), what the banks leave
// is split stealWays ways across child workers drawing on the shared
// budget, and fold lands banks and children as the straggler's partial, so
// the job's merge is byte-identical to the shard having run uninterrupted.
// Banks that already cover the whole plan leave no children and fold
// alone. Child partials use a .steal-* suffix (outside the
// sweep-shard-*.json merge globs) and report progress under the keys
// Count + Shard*stealWays + w, unique because a shard is stolen at most
// once.
func (r *jobRun) resplit(sr *shardRun) (*fleet.SweepResult, *shardError) {
	t := &sr.task
	// The straggler reports nothing more: close its tally at what it did,
	// so the children's reports carry the rest of the job's progress.
	r.table.close(sr.key)
	r.opts.Logf("shard %s: lagging the fleet median — cancelled at checkpoint, re-splitting", t.ShardArg())
	r.bank(sr)
	work := *t.Plan
	stolen := r.spec.Trials(work)
	r.job.stolen.Add(int64(stolen))
	var children []*shardRun
	for w := 0; w < stealWays; w++ {
		sub := fleet.ShardPlan{
			Index:     work.Index,
			Count:     work.Count,
			Injection: work.Injection.Split(w, stealWays),
			Beam:      work.Beam.Split(w, stealWays),
		}
		if sub.Injection.Empty() && sub.Beam.Empty() {
			continue
		}
		out := fmt.Sprintf("%s.steal-%d-of-%d", t.OutPath, w+1, stealWays)
		child := newShardRun(r.jctx, Task{
			Shard: t.Shard, Count: t.Count,
			SpecPath:        t.SpecPath,
			OutPath:         out,
			Plan:            &sub,
			CheckpointPath:  out + ".ckpt",
			CheckpointEvery: t.CheckpointEvery,
		}, t.Count+t.Shard*stealWays+w, r.s.budget.enqueue())
		r.table.add(child, false)
		children = append(children, child)
	}
	if len(children) > 0 {
		r.opts.Logf("shard %s: re-splitting %d remaining trials %d ways", t.ShardArg(), stolen, stealWays)
	}
	parts := make([]*fleet.SweepResult, len(children))
	errs := r.runAll(children, func(i int, p *fleet.SweepResult) { parts[i] = p })
	if r.jctx.Err() != nil {
		return nil, nil // job cancelled; not this shard's failure
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}
	full, err := r.fold(sr, parts)
	if err != nil {
		return nil, &shardError{task: *t, err: fmt.Errorf("re-split fold: %w", err)}
	}
	for _, c := range children {
		os.Remove(c.task.OutPath)
		os.Remove(c.task.CheckpointPath)
	}
	os.Remove(t.CheckpointPath)
	r.opts.Logf("shard %s: re-split complete, partial refolded (%s)", t.ShardArg(), t.OutPath)
	return full, nil
}

// Options returns a copy of the scheduler's validated config (hooks
// included) — what a layer above needs to describe the fan-out it is
// submitting into, e.g. the shard width of progress events.
func (s *Scheduler) Options() Options { return s.opts }

// Close cancels every job, refuses further submissions, and waits for the
// supervision goroutines to drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// ticket is one queued claim on the shared budget. It is granted (ch
// closed) either immediately at enqueue or later by a release, in strict
// enqueue order; a waiter that gives up marks it abandoned so release
// skips it.
type ticket struct {
	ch        chan struct{}
	granted   bool
	abandoned bool
}

// budget is the scheduler-wide shard-slot pool: at most `slots` workers in
// flight across every job, granted strictly FIFO. A zero/negative slot
// count means unlimited.
type budget struct {
	mu        sync.Mutex
	unlimited bool
	free      int
	queue     []*ticket
}

func newBudget(slots int) *budget {
	if slots <= 0 {
		return &budget{unlimited: true}
	}
	return &budget{free: slots}
}

// enqueue claims a slot if one is free, else joins the FIFO queue.
func (b *budget) enqueue() *ticket {
	t := &ticket{ch: make(chan struct{})}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.unlimited || b.free > 0 {
		if !b.unlimited {
			b.free--
		}
		t.granted = true
		close(t.ch)
		return t
	}
	b.queue = append(b.queue, t)
	return t
}

// wait blocks until t is granted or ctx ends. On cancellation a ticket
// granted in the race is returned to the pool, and a still-queued one is
// abandoned in place.
func (b *budget) wait(ctx context.Context, t *ticket) error {
	select {
	case <-t.ch:
		return nil
	case <-ctx.Done():
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.granted {
		b.releaseLocked()
	} else {
		t.abandoned = true
	}
	return ctx.Err()
}

// release returns a slot: the oldest live waiter gets it directly, else it
// goes back to the free pool.
func (b *budget) release() {
	if b.unlimited {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.releaseLocked()
}

func (b *budget) releaseLocked() {
	if b.unlimited {
		return
	}
	for len(b.queue) > 0 {
		t := b.queue[0]
		b.queue = b.queue[1:]
		if t.abandoned {
			continue
		}
		t.granted = true
		close(t.ch)
		return
	}
	b.free++
}
