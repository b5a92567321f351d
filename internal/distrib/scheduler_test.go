package distrib

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"phirel/internal/fleet"
)

// schedSweep is the scheduler tests' small fixture: one injection cell,
// no beam cells, so precomputed partials replay instantly.
func schedSweep() fleet.Sweep {
	s := testSweep()
	s.BeamRuns = 0
	s.BeamBenchmarks = nil
	s.BeamECCAblation = false
	return s
}

// replayParts precomputes the K shard partials of spec so launchers can
// land them without paying for compute in every test.
func replayParts(t *testing.T, spec fleet.Sweep, count int) []*fleet.SweepResult {
	t.Helper()
	parts := make([]*fleet.SweepResult, count)
	for k := range parts {
		var err error
		if parts[k], err = spec.RunShard(context.Background(), k, count); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

// TestSchedulerFIFOUnderOneSlot is the queue-fairness test: with a 1-slot
// shared budget, shards run in strict submission order — every shard of
// job N before any shard of job N+1 — so an early job can never be
// starved by later arrivals.
func TestSchedulerFIFOUnderOneSlot(t *testing.T) {
	spec := schedSweep()
	const shards = 2
	parts := replayParts(t, spec, shards)

	var mu sync.Mutex
	var order []string // "<jobDir>/<shard>" in execution order
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		mu.Lock()
		order = append(order, filepath.Base(filepath.Dir(task.OutPath))+"/"+task.ShardArg())
		mu.Unlock()
		return parts[task.Shard].WriteFile(task.OutPath)
	})
	sched, err := NewScheduler(Options{
		Shards: shards, Launcher: launcher, Dir: t.TempDir(), MaxConcurrent: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	jobs := make([]*Job, 3)
	for i := range jobs {
		if jobs[i], err = sched.Submit(spec, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
		base := filepath.Base(j.Dir())
		for k := 0; k < shards; k++ {
			want = append(want, base+"/"+Task{Shard: k, Count: shards}.ShardArg())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("executed %d shards, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v violates submission-order FIFO %v", order, want)
		}
	}
}

// TestSchedulerCancelIsolation: cancelling one job kills its workers and
// reports cancellation, while a sibling job on the same scheduler runs to
// a merged result bit-identical to the monolithic run.
func TestSchedulerCancelIsolation(t *testing.T) {
	spec := schedSweep()
	_, monoJSON := monoArtifact(t, spec)
	const shards = 2
	parts := replayParts(t, spec, shards)

	hanging := make(chan struct{}) // closed when a victim shard is wedged
	var once sync.Once
	// The first submission is always job-1, so the launcher can pick the
	// victim deterministically from the per-job directory name.
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		if filepath.Base(filepath.Dir(task.OutPath)) == "job-1" {
			once.Do(func() { close(hanging) })
			<-ctx.Done() // wedge until cancelled
			return ctx.Err()
		}
		return parts[task.Shard].WriteFile(task.OutPath)
	})
	sched, err := NewScheduler(Options{Shards: shards, Launcher: launcher, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	victim, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if victim.ID() != "job-1" {
		t.Fatalf("first submission got id %s", victim.ID())
	}
	sibling, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	<-hanging
	victim.Cancel()
	if _, err := victim.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
	if st := victim.Status(); st.State != JobCancelled {
		t.Fatalf("cancelled job state %s", st.State)
	}

	res, err := sibling.Wait(context.Background())
	if err != nil {
		t.Fatalf("sibling job disturbed by cancellation: %v", err)
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, res)) {
		t.Fatal("sibling merge differs from monolithic run")
	}
	if st := sibling.Status(); st.State != JobDone {
		t.Fatalf("sibling state %s", st.State)
	}
}

// TestSchedulerCancelQueuedJobFreesNothing: a job cancelled while still
// queued abandons its budget tickets in place; the slot later freed by the
// running job must skip them and reach the next live job.
func TestSchedulerCancelQueuedJobFreesNothing(t *testing.T) {
	spec := schedSweep()
	parts := replayParts(t, spec, 1)

	gate := make(chan struct{})
	started := make(chan string, 8)
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		started <- filepath.Base(filepath.Dir(task.OutPath))
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
		return parts[task.Shard].WriteFile(task.OutPath)
	})
	sched, err := NewScheduler(Options{Shards: 1, Launcher: launcher, Dir: t.TempDir(), MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	holder, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-started; got != filepath.Base(holder.Dir()) {
		t.Fatalf("first slot went to %s", got)
	}
	queued, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	last, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job cancel: %v", err)
	}
	close(gate) // let the holder finish; its slot must reach `last`
	if _, err := holder.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := last.Wait(context.Background()); err != nil {
		t.Fatalf("job behind an abandoned ticket never ran: %v", err)
	}
	if got := <-started; got != filepath.Base(last.Dir()) {
		t.Fatalf("freed slot went to %s, want %s", got, filepath.Base(last.Dir()))
	}
}

// TestSchedulerSubscribe: progress samples flow to subscribers and the
// stream closes at the terminal state; a late subscriber gets an
// immediately-closed channel. The workers wait for the subscription: a
// job whose keys are already resident can finish before Submit's caller
// subscribes.
func TestSchedulerSubscribe(t *testing.T) {
	spec := schedSweep()
	subscribed := make(chan struct{})
	sched, err := NewScheduler(Options{
		Shards: 2, Dir: t.TempDir(),
		Launcher: LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
			<-subscribed
			return inProcWorker(ctx, task, stderr)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	job, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, stop := job.Subscribe()
	defer stop()
	close(subscribed)
	var last Progress
	n := 0
	for p := range ch {
		last, n = p, n+1
	}
	if n == 0 {
		t.Fatal("no progress samples delivered")
	}
	cells := len(spec.Cells()) * 2
	if last.Done != cells || last.Total != cells {
		t.Fatalf("final sample %+v, want %d/%d", last, cells, cells)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	late, lateStop := job.Subscribe()
	defer lateStop()
	if _, open := <-late; open {
		t.Fatal("late subscription delivered on an open channel, want closed")
	}
}

// TestSchedulerClose: Close cancels running jobs and refuses new ones.
func TestSchedulerClose(t *testing.T) {
	spec := schedSweep()
	started := make(chan struct{})
	var once sync.Once
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	})
	sched, err := NewScheduler(Options{Shards: 1, Launcher: launcher, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan struct{})
	go func() {
		sched.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain")
	}
	if st := job.Status(); st.State != JobCancelled {
		t.Fatalf("job state after Close: %s", st.State)
	}
	if _, err := sched.Submit(spec, nil, nil); err == nil {
		t.Fatal("closed scheduler accepted a submission")
	}
}

// TestOptionsValidate: the consolidated config rejects what used to be
// silently accepted.
func TestOptionsValidate(t *testing.T) {
	valid := Options{Shards: 2, Launcher: LauncherFunc(inProcWorker), Dir: t.TempDir()}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if d := Defaults(); d.Shards < 1 || d.Retries < 0 || d.Backoff <= 0 {
		t.Fatalf("Defaults are not a sane baseline: %+v", d)
	}
	bad := []func(*Options){
		func(o *Options) { o.Shards = 0 },
		func(o *Options) { o.Launcher = nil },
		func(o *Options) { o.Dir = "" },
		func(o *Options) { o.Timeout = -time.Second },
		func(o *Options) { o.Retries = -1 },
		func(o *Options) { o.Backoff = -time.Millisecond },
		func(o *Options) { o.MaxConcurrent = -2 },
		func(o *Options) { o.StealInterval = time.Second }, // without CheckpointEvery
	}
	for i, mutate := range bad {
		o := valid
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, o)
		}
	}
}

// TestSchedulerSeal: a job reads done only after its seal returns — Done
// stays open and Result reports the job unfinished while the seal blocks,
// and a sealed job keeps no merged result: the seal was its one reader, so
// Wait reports ErrResultSealed — and a seal error ends the job failed.
func TestSchedulerSeal(t *testing.T) {
	spec := schedSweep()
	sched, err := NewScheduler(Options{Shards: 2, Launcher: LauncherFunc(inProcWorker), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	merged, release := make(chan *fleet.SweepResult, 1), make(chan struct{})
	job, err := sched.Submit(spec, nil, func(_ *Job, res *fleet.SweepResult) error {
		merged <- res
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sealed := <-merged
	select {
	case <-job.Done():
		t.Fatal("job done while its seal blocks")
	default:
	}
	if st := job.Status(); st.State != JobRunning {
		t.Fatalf("job reads %s while its seal blocks, want running", st.State)
	}
	if _, err := job.Result(); err == nil || !strings.Contains(err.Error(), "not finished") {
		t.Fatalf("Result while the seal blocks: %v, want not finished", err)
	}
	close(release)
	if res, err := job.Wait(context.Background()); !errors.Is(err, ErrResultSealed) || res != nil || sealed == nil {
		t.Fatalf("Wait after the seal: %p, %v; want no result kept and ErrResultSealed (the seal got %p)", res, err, sealed)
	}
	if st := job.Status(); st.State != JobDone {
		t.Fatalf("sealed job reads %s, want done", st.State)
	}

	refused := errors.New("seal refused")
	failed, err := sched.Submit(spec, nil, func(*Job, *fleet.SweepResult) error { return refused })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failed.Wait(context.Background()); !errors.Is(err, refused) {
		t.Fatalf("job whose seal failed returned %v, want the seal's error", err)
	}
	if st := failed.Status(); st.State != JobFailed {
		t.Fatalf("job whose seal failed reads %s, want failed", st.State)
	}
}

// TestSchedulerFoldsValidatedPartials: a job folds the partials validation
// decoded, not the files they came from. Under a 1-slot budget shard 1
// launches only after shard 0's partial has validated, and its launcher
// truncates that partial on disk before doing its own work; the job still
// merges to the monolithic bytes, and both shards ran exactly once.
func TestSchedulerFoldsValidatedPartials(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	var launches sync.Map // shard → struct{}
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		if _, again := launches.LoadOrStore(task.Shard, struct{}{}); again {
			t.Errorf("shard %s launched twice", task.ShardArg())
		}
		if task.Shard == 1 {
			earlier := PartialPath(filepath.Dir(task.OutPath), 0, task.Count)
			if err := os.Truncate(earlier, 10); err != nil {
				return err
			}
		}
		return inProcWorker(ctx, task, stderr)
	})
	res, err := Run(context.Background(), spec, Options{
		Shards: 2, MaxConcurrent: 1, Retries: 0, Launcher: launcher, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("a job whose validated partial was truncated afterwards failed: %v", err)
	}
	if !bytes.Equal(artifactBytes(t, res), monoJSON) {
		t.Fatal("merged result differs from the monolithic run")
	}
}
