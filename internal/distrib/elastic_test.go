package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"phirel/internal/fleet"
)

// Tests for the elastic-execution layer: the straggler watchdog's rate
// arithmetic under a fake clock, and the scheduler's checkpoint-resume and
// steal/re-split paths through in-process workers. The same behaviours are
// proven end-to-end against real launcher backends by the conformance
// suite's preemption leg; these tests pin the mechanisms in isolation,
// deterministically, with no subprocesses and no real wall-clock coupling.

// wdClock is the fake clock the watchdog tests drive: a fixed base plus an
// explicit offset, so rate windows are exact.
type wdClock struct{ base time.Time }

func newWdClock() wdClock { return wdClock{base: time.Unix(1_700_000_000, 0)} }

func (c wdClock) at(d time.Duration) time.Time { return c.base.Add(d) }

// TestWatchdogNoStealBelowThreshold: a shard slower than its peer but above
// factor × median is never flagged — ordinary pace variance is not
// straggling.
func TestWatchdogNoStealBelowThreshold(t *testing.T) {
	clk := newWdClock()
	wd := newWatchdog(0.5, 100*time.Millisecond)
	wd.watch(0)
	wd.watch(1)
	// Shard 0 gains 1.0 frac/s, shard 1 gains 0.6 frac/s — above the 0.5
	// cut of the median however the median falls.
	wd.observe(0, 0, 10, clk.at(0))
	wd.observe(1, 0, 10, clk.at(0))
	wd.observe(0, 10, 10, clk.at(time.Second))
	wd.observe(1, 6, 10, clk.at(time.Second))
	if got := wd.lagging(clk.at(time.Second)); got != nil {
		t.Fatalf("shards within the threshold flagged as lagging: %v", got)
	}
}

// TestWatchdogFlagsStragglerAfterMinObserve: a genuinely slow shard is
// flagged, but only once it has been observable for minObserve — a launch
// hiccup inside the window cannot trigger a steal.
func TestWatchdogFlagsStragglerAfterMinObserve(t *testing.T) {
	clk := newWdClock()
	wd := newWatchdog(0.5, time.Second)
	wd.watch(0)
	wd.watch(1)
	wd.observe(0, 0, 10, clk.at(0))
	wd.observe(1, 0, 10, clk.at(0))
	// Half the window in: shard 1 is already 10x slower, but ineligible.
	wd.observe(0, 5, 10, clk.at(500*time.Millisecond))
	wd.observe(1, 1, 20, clk.at(500*time.Millisecond))
	if got := wd.lagging(clk.at(500 * time.Millisecond)); got != nil {
		t.Fatalf("straggler flagged before minObserve: %v", got)
	}
	// Past the window the same rates must flag it, and only it.
	wd.observe(0, 10, 10, clk.at(time.Second))
	wd.observe(1, 2, 20, clk.at(time.Second))
	if got := wd.lagging(clk.at(time.Second)); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("lagging = %v, want [1]", got)
	}
}

// TestWatchdogNeedsAFleet: with fewer than two observable shards there is
// no fleet median to lag — a lone stalled shard is never flagged.
func TestWatchdogNeedsAFleet(t *testing.T) {
	clk := newWdClock()
	wd := newWatchdog(0.5, 100*time.Millisecond)
	wd.watch(0)
	wd.observe(0, 1, 10, clk.at(0))
	if got := wd.lagging(clk.at(time.Minute)); got != nil {
		t.Fatalf("lone shard flagged with no fleet to compare against: %v", got)
	}
}

// TestWatchdogStalledRateDecays: a shard that reports early progress and
// then goes silent is measured against *now*, so its rate decays with
// wall-clock and it is eventually flagged without a single new sample.
func TestWatchdogStalledRateDecays(t *testing.T) {
	clk := newWdClock()
	wd := newWatchdog(0.5, time.Second)
	wd.watch(0)
	wd.watch(1)
	wd.observe(0, 0, 10, clk.at(0))
	wd.observe(1, 0, 10, clk.at(0))
	// Both make identical early progress…
	wd.observe(0, 2, 10, clk.at(time.Second))
	wd.observe(1, 2, 10, clk.at(time.Second))
	if got := wd.lagging(clk.at(time.Second)); got != nil {
		t.Fatalf("identical shards flagged: %v", got)
	}
	// …then shard 1 goes silent while shard 0 keeps reporting. No new
	// sample for shard 1 arrives, yet its measured rate decays to a tenth
	// of shard 0's.
	wd.observe(0, 9, 10, clk.at(4*time.Second))
	if got := wd.lagging(clk.at(10 * time.Second)); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("stalled shard not flagged by rate decay: %v", got)
	}
}

// TestWatchdogWindowRestartsOnRegression: a fraction that regresses marks a
// relaunched (crashed, resumed) worker — the observation window restarts so
// the fresh attempt is measured on its own progress, not punished for the
// crash, and a healthy resumed attempt is never flagged.
func TestWatchdogWindowRestartsOnRegression(t *testing.T) {
	clk := newWdClock()
	wd := newWatchdog(0.5, time.Second)
	wd.watch(0)
	wd.watch(1)
	wd.observe(0, 0, 10, clk.at(0))
	wd.observe(1, 0, 10, clk.at(0))
	wd.observe(0, 5, 10, clk.at(2*time.Second))
	wd.observe(1, 8, 10, clk.at(2*time.Second))
	// Shard 1 crashes and its relaunch restarts reporting near zero. A
	// naive window would compute a negative rate and flag it instantly.
	wd.observe(1, 1, 10, clk.at(3*time.Second))
	if got := wd.lagging(clk.at(3 * time.Second)); got != nil {
		t.Fatalf("resumed shard flagged at relaunch: %v", got)
	}
	// The resumed attempt progresses at the fleet's pace: healthy through
	// and past its fresh observation window.
	wd.observe(0, 8, 10, clk.at(4*time.Second))
	wd.observe(1, 4, 10, clk.at(4*time.Second))
	if got := wd.lagging(clk.at(4*time.Second + 500*time.Millisecond)); got != nil {
		t.Fatalf("healthy resumed shard flagged: %v", got)
	}
}

// TestWatchdogExclude: finished or already-stolen shards drop out of both
// sides of the comparison — they are never flagged again, and when the
// observable fleet falls below two, nothing is.
func TestWatchdogExclude(t *testing.T) {
	clk := newWdClock()
	wd := newWatchdog(0.5, time.Second)
	for k := 0; k < 3; k++ {
		wd.watch(k)
		wd.observe(k, 0, 10, clk.at(0))
	}
	wd.observe(0, 10, 10, clk.at(2*time.Second))
	wd.observe(1, 10, 10, clk.at(2*time.Second))
	wd.observe(2, 1, 10, clk.at(2*time.Second))
	if got := wd.lagging(clk.at(2 * time.Second)); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("lagging = %v, want [2]", got)
	}
	// Stolen: shard 2 must not be flagged twice.
	wd.exclude(2)
	if got := wd.lagging(clk.at(2 * time.Second)); got != nil {
		t.Fatalf("excluded shard still flagged: %v", got)
	}
	// Shard 1 finishes too: one observable shard left, no fleet.
	wd.exclude(1)
	wd.observe(2, 1, 10, clk.at(3*time.Second)) // ignored: excluded
	if got := wd.lagging(clk.at(time.Minute)); got != nil {
		t.Fatalf("lagging with a one-shard fleet: %v", got)
	}
}

// elasticAttempt records one in-process worker launch for assertions.
type elasticAttempt struct {
	shard, attempt int
	resumed        bool
	plan           *fleet.ShardPlan
}

// TestSchedulerResumesFromCheckpoint: every shard checkpoints and dies on
// its first attempt; the relaunch mounts the checkpoint and computes only
// the remainder. The job lands byte-identical to the monolithic run and
// reports the salvaged trials through JobStatus.TrialsResumed.
func TestSchedulerResumesFromCheckpoint(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	const shards = 2

	var mu sync.Mutex
	var attempts []elasticAttempt
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		spec, err := fleet.ReadSpecFile(task.SpecPath)
		if err != nil {
			return err
		}
		plan, err := spec.Plan(task.Shard, task.Count)
		if err != nil {
			return err
		}
		mu.Lock()
		attempts = append(attempts, elasticAttempt{
			shard: task.Shard, attempt: task.Attempt, resumed: task.ResumeFrom != "",
		})
		mu.Unlock()
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ck := fleet.Checkpoint{
			Out: task.CheckpointPath, Every: task.CheckpointEvery, Resume: task.ResumeFrom,
		}
		if task.Attempt == 0 {
			// Die at the first checkpoint boundary: the cancel aborts the
			// next chunk, leaving the checkpoint artifact behind.
			ck.OnCheckpoint = func(fleet.ShardPlan) { cancel() }
		}
		res, err := spec.RunPlanCheckpointed(rctx, plan, ck)
		if err != nil {
			return err
		}
		return res.WriteFile(task.OutPath)
	})

	sched, err := NewScheduler(Options{
		Shards: shards, Launcher: launcher, Dir: t.TempDir(),
		Retries: 1, Backoff: time.Millisecond, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	job, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("merge after checkpoint-resume retries not byte-identical to the monolithic run")
	}

	st := job.Status()
	if st.TrialsResumed == 0 {
		t.Fatal("job resumed from checkpoints but TrialsResumed is 0")
	}
	if st.TrialsStolen != 0 {
		t.Fatalf("no watchdog armed, yet TrialsStolen = %d", st.TrialsStolen)
	}
	// Ceiling: resumed trials can never exceed the whole job's trial space.
	total := int64(spec.N*len(spec.Cells()) + spec.BeamRuns*len(spec.BeamCells()))
	if st.TrialsResumed >= total {
		t.Fatalf("TrialsResumed %d >= the job's %d total trials", st.TrialsResumed, total)
	}

	mu.Lock()
	defer mu.Unlock()
	byShard := map[int][]elasticAttempt{}
	for _, a := range attempts {
		byShard[a.shard] = append(byShard[a.shard], a)
	}
	for k := 0; k < shards; k++ {
		as := byShard[k]
		if len(as) != 2 {
			t.Fatalf("shard %d launched %d times, want 2 (die + resume)", k, len(as))
		}
		if as[0].resumed || as[0].attempt != 0 {
			t.Fatalf("shard %d first attempt malformed: %+v", k, as[0])
		}
		if !as[1].resumed || as[1].attempt != 1 {
			t.Fatalf("shard %d relaunch did not mount the checkpoint: %+v", k, as[1])
		}
	}
}

// TestSchedulerStealsStraggler: a shard that checkpoints a prefix and then
// stalls is cancelled by the watchdog and its remainder re-split across
// fresh sub-workers. The checkpointed prefix is never recomputed (zero lost
// trials), the sub-plans tile the remainder exactly, TrialsStolen counts
// precisely the re-split work, and the merge stays byte-identical.
func TestSchedulerStealsStraggler(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	const shards = 2

	// The straggler (shard 1) banks the first half of its plan as a
	// checkpoint, reports one progress sample, and stalls until cancelled.
	// Shard 0 streams synthetic rising progress (a healthy fleet median)
	// and holds its finish until the steal is underway, so the watchdog
	// always has a two-shard fleet to compare.
	stealSeen := make(chan struct{})
	var stealOnce sync.Once
	logs := &confLogs{}
	logf := func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "lagging the fleet median") {
			stealOnce.Do(func() { close(stealSeen) })
		}
		logs.logf(format, args...)
	}

	var mu sync.Mutex
	var subPlans []fleet.ShardPlan
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		spec, err := fleet.ReadSpecFile(task.SpecPath)
		if err != nil {
			return err
		}
		if task.Plan != nil {
			// Re-split sub-worker: compute exactly the handed plan.
			mu.Lock()
			subPlans = append(subPlans, *task.Plan)
			mu.Unlock()
			res, err := spec.RunPlan(ctx, *task.Plan)
			if err != nil {
				return err
			}
			return res.WriteFile(task.OutPath)
		}
		enc := json.NewEncoder(stderr)
		if task.Shard == 1 {
			plan, err := spec.Plan(task.Shard, task.Count)
			if err != nil {
				return err
			}
			prefix := fleet.ShardPlan{
				Index: plan.Index, Count: plan.Count,
				Injection: plan.Injection.Split(0, 2),
				Beam:      plan.Beam.Split(0, 2),
			}
			part, err := spec.RunPlan(ctx, prefix)
			if err != nil {
				return err
			}
			if err := part.WriteFileAtomic(task.CheckpointPath); err != nil {
				return err
			}
			// One sample, then silence: the watchdog measures a zero rate
			// that decays against the fleet median.
			enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: 1, Total: 100})
			<-ctx.Done()
			return ctx.Err()
		}
		// Shard 0: synthetic steady progress while the real slice computes.
		// The supervisor flushes stderr once the launcher returns, so the
		// reporter must have stopped writing to it by then.
		stop, stopped := make(chan struct{}), make(chan struct{})
		defer func() { close(stop); <-stopped }()
		go func() {
			defer close(stopped)
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Millisecond):
					enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: i, Total: 1000})
				}
			}
		}()
		res, err := spec.RunShard(ctx, task.Shard, task.Count)
		if err != nil {
			return err
		}
		select {
		case <-stealSeen:
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return fmt.Errorf("shard 0 gave up waiting for the steal")
		}
		return res.WriteFile(task.OutPath)
	})

	sched, err := NewScheduler(Options{
		Shards: shards, Launcher: launcher, Dir: t.TempDir(),
		CheckpointEvery: 2,
		StealInterval:   50 * time.Millisecond,
		StealFactor:     0.5,
		StealWays:       2,
		Logf:            logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	job, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("merge after the steal not byte-identical to the monolithic run")
	}

	// The stolen work is exactly the plan minus the checkpointed prefix.
	plan, err := spec.Plan(1, shards)
	if err != nil {
		t.Fatal(err)
	}
	prefix := fleet.ShardPlan{
		Index: plan.Index, Count: plan.Count,
		Injection: plan.Injection.Split(0, 2),
		Beam:      plan.Beam.Split(0, 2),
	}
	rest, err := fleet.ResumePlan(plan, prefix)
	if err != nil {
		t.Fatal(err)
	}
	wantStolen := int64(rest.Injection.N*len(spec.Cells()) + rest.Beam.N*len(spec.BeamCells()))
	st := job.Status()
	if st.TrialsStolen != wantStolen {
		t.Fatalf("TrialsStolen = %d, want %d (the remainder past the checkpoint)", st.TrialsStolen, wantStolen)
	}

	// Zero lost trials: the sub-plans tile the remainder exactly — nothing
	// from the checkpointed prefix recomputed, nothing doubled, nothing
	// dropped.
	mu.Lock()
	defer mu.Unlock()
	if len(subPlans) == 0 {
		t.Fatal("the steal launched no re-split sub-workers")
	}
	sort.Slice(subPlans, func(i, j int) bool {
		return subPlans[i].Injection.Offset < subPlans[j].Injection.Offset
	})
	injN, beamN := 0, 0
	for _, sp := range subPlans {
		if sp.Injection.Offset < rest.Injection.Offset || sp.Beam.Offset < rest.Beam.Offset {
			t.Fatalf("sub-plan %v recomputes checkpointed trials (rest %v)", sp, rest)
		}
		injN += sp.Injection.N
		beamN += sp.Beam.N
	}
	if injN != rest.Injection.N || beamN != rest.Beam.N {
		t.Fatalf("sub-plans cover %d+%d trials, want %d+%d", injN, beamN, rest.Injection.N, rest.Beam.N)
	}
	if !strings.Contains(logs.joined(), "re-split complete") {
		t.Fatalf("re-split never completed:\n%s", logs.joined())
	}
}
