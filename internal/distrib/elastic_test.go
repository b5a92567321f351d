package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"phirel/internal/fleet"
)

// Tests for the elastic-execution layer: the worker table's straggler rate
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
	const minObserve = 100 * time.Millisecond
	tab := primaries(2, 10, nil)
	// Shard 0 gains 1.0 frac/s, shard 1 gains 0.6 frac/s — above the 0.5
	// cut of the median however the median falls.
	tab.report(0, 0, 10, clk.at(0))
	tab.report(1, 0, 10, clk.at(0))
	tab.report(0, 10, 10, clk.at(time.Second))
	tab.report(1, 6, 10, clk.at(time.Second))
	if got := tab.lagging(clk.at(time.Second), minObserve); got != nil {
		t.Fatalf("shards within the threshold flagged as lagging: %v", got)
	}
}

// TestWatchdogFlagsStragglerAfterMinObserve: a genuinely slow shard is
// flagged, but only once it has been observable for minObserve — a launch
// hiccup inside the window cannot trigger a steal.
func TestWatchdogFlagsStragglerAfterMinObserve(t *testing.T) {
	clk := newWdClock()
	const minObserve = time.Second
	tab := primaries(2, 10, nil)
	tab.report(0, 0, 10, clk.at(0))
	tab.report(1, 0, 10, clk.at(0))
	// Half the window in: shard 1 is already 10x slower, but ineligible.
	tab.report(0, 5, 10, clk.at(500*time.Millisecond))
	tab.report(1, 1, 20, clk.at(500*time.Millisecond))
	if got := tab.lagging(clk.at(500*time.Millisecond), minObserve); got != nil {
		t.Fatalf("straggler flagged before minObserve: %v", got)
	}
	// Past the window the same rates must flag it, and only it.
	tab.report(0, 10, 10, clk.at(time.Second))
	tab.report(1, 2, 20, clk.at(time.Second))
	if got := tab.lagging(clk.at(time.Second), minObserve); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("lagging = %v, want [1]", got)
	}
}

// TestWatchdogNeedsAFleet: with fewer than two observable shards there is
// no fleet median to lag — a lone stalled shard is never flagged.
func TestWatchdogNeedsAFleet(t *testing.T) {
	clk := newWdClock()
	const minObserve = 100 * time.Millisecond
	tab := primaries(1, 10, nil)
	tab.report(0, 1, 10, clk.at(0))
	if got := tab.lagging(clk.at(time.Minute), minObserve); got != nil {
		t.Fatalf("lone shard flagged with no fleet to compare against: %v", got)
	}
}

// TestWatchdogStalledRateDecays: a shard that reports early progress and
// then goes silent is measured against *now*, so its rate decays with
// wall-clock and it is eventually flagged without a single new sample.
func TestWatchdogStalledRateDecays(t *testing.T) {
	clk := newWdClock()
	const minObserve = time.Second
	tab := primaries(2, 10, nil)
	tab.report(0, 0, 10, clk.at(0))
	tab.report(1, 0, 10, clk.at(0))
	// Both make identical early progress…
	tab.report(0, 2, 10, clk.at(time.Second))
	tab.report(1, 2, 10, clk.at(time.Second))
	if got := tab.lagging(clk.at(time.Second), minObserve); got != nil {
		t.Fatalf("identical shards flagged: %v", got)
	}
	// …then shard 1 goes silent while shard 0 keeps reporting. No new
	// sample for shard 1 arrives, yet its measured rate decays to a tenth
	// of shard 0's.
	tab.report(0, 9, 10, clk.at(4*time.Second))
	if got := tab.lagging(clk.at(10*time.Second), minObserve); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("stalled shard not flagged by rate decay: %v", got)
	}
}

// TestWatchdogWindowRestartsOnRegression: a fraction that regresses marks a
// relaunched (crashed, resumed) worker — the observation window restarts so
// the fresh attempt is measured on its own progress, not punished for the
// crash, and a healthy resumed attempt is never flagged.
func TestWatchdogWindowRestartsOnRegression(t *testing.T) {
	clk := newWdClock()
	const minObserve = time.Second
	tab := primaries(2, 10, nil)
	tab.report(0, 0, 10, clk.at(0))
	tab.report(1, 0, 10, clk.at(0))
	tab.report(0, 5, 10, clk.at(2*time.Second))
	tab.report(1, 8, 10, clk.at(2*time.Second))
	// Shard 1 crashes and its relaunch restarts reporting near zero. A
	// naive window would compute a negative rate and flag it instantly.
	tab.report(1, 1, 10, clk.at(3*time.Second))
	if got := tab.lagging(clk.at(3*time.Second), minObserve); got != nil {
		t.Fatalf("resumed shard flagged at relaunch: %v", got)
	}
	// The resumed attempt progresses at the fleet's pace: healthy through
	// and past its fresh observation window.
	tab.report(0, 8, 10, clk.at(4*time.Second))
	tab.report(1, 4, 10, clk.at(4*time.Second))
	if got := tab.lagging(clk.at(4*time.Second+500*time.Millisecond), minObserve); got != nil {
		t.Fatalf("healthy resumed shard flagged: %v", got)
	}
}

// TestWatchdogExclude: a claimed row — finished or already stolen — drops
// out of both sides of the comparison: it is never flagged again, and when
// the observable fleet falls below two, nothing is.
func TestWatchdogExclude(t *testing.T) {
	clk := newWdClock()
	const minObserve = time.Second
	tab := primaries(3, 10, nil)
	for k := 0; k < 3; k++ {
		tab.report(k, 0, 10, clk.at(0))
	}
	tab.report(0, 10, 10, clk.at(2*time.Second))
	tab.report(1, 10, 10, clk.at(2*time.Second))
	tab.report(2, 1, 10, clk.at(2*time.Second))
	if got := tab.lagging(clk.at(2*time.Second), minObserve); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("lagging = %v, want [2]", got)
	}
	// Stolen: shard 2 must not be flagged twice.
	if !tab.claim(2, stolen) {
		t.Fatal("steal of a running row refused")
	}
	if got := tab.lagging(clk.at(2*time.Second), minObserve); got != nil {
		t.Fatalf("stolen shard still flagged: %v", got)
	}
	// Shard 1 finishes too: one observable shard left, no fleet.
	if !tab.claim(1, finished) {
		t.Fatal("finish of a running row refused")
	}
	tab.report(2, 1, 10, clk.at(3*time.Second)) // uncounted: claimed
	if got := tab.lagging(clk.at(time.Minute), minObserve); got != nil {
		t.Fatalf("lagging with a one-shard fleet: %v", got)
	}
}

// elasticAttempt records one in-process worker launch for assertions.
type elasticAttempt struct {
	shard, attempt int
	plan           fleet.ShardPlan
}

// TestSchedulerResumesFromCheckpoint: every shard checkpoints and dies on
// its first attempt; the supervisor banks the checkpoint and relaunches the
// shard on only the remainder, which the worker runs as a plain plan. The
// job lands byte-identical to the monolithic run and reports exactly the
// banked trials through JobStatus.TrialsResumed.
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
		mu.Lock()
		attempts = append(attempts, elasticAttempt{shard: task.Shard, attempt: task.Attempt, plan: *task.Plan})
		mu.Unlock()
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ck := fleet.Checkpoint{Out: task.CheckpointPath, Every: task.CheckpointEvery}
		if task.Attempt == 0 {
			// Die at the first checkpoint boundary: the cancel aborts the
			// next chunk, leaving the checkpoint artifact behind.
			ck.OnCheckpoint = func(fleet.ShardPlan) { cancel() }
		}
		res, err := spec.RunPlanCheckpointed(rctx, *task.Plan, ck)
		if err != nil {
			return err
		}
		return res.WriteFile(task.OutPath)
	})

	dir := t.TempDir()
	sched, err := NewScheduler(Options{
		Shards: shards, Launcher: launcher, Dir: dir,
		Retries: 1, Backoff: time.Millisecond, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	job, err := sched.Submit(spec, nil, nil)
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
	if st.TrialsStolen != 0 {
		t.Fatalf("no watchdog armed, yet TrialsStolen = %d", st.TrialsStolen)
	}

	mu.Lock()
	defer mu.Unlock()
	byShard := map[int][]elasticAttempt{}
	for _, a := range attempts {
		byShard[a.shard] = append(byShard[a.shard], a)
	}
	cellTrials := func(p fleet.ShardPlan) int64 {
		return int64(p.Injection.N*len(spec.Cells()) + p.Beam.N*len(spec.BeamCells()))
	}
	var banked int64
	for k := 0; k < shards; k++ {
		plan, err := spec.Plan(k, shards)
		if err != nil {
			t.Fatal(err)
		}
		as := byShard[k]
		if len(as) != 2 {
			t.Fatalf("shard %d launched %d times, want 2 (die + relaunch)", k, len(as))
		}
		if as[0].attempt != 0 || as[0].plan != plan {
			t.Fatalf("shard %d first attempt malformed: %+v, want the plan %v", k, as[0], plan)
		}
		rest := as[1].plan
		if as[1].attempt != 1 || rest.Injection.End() != plan.Injection.End() || rest.Beam.End() != plan.Beam.End() ||
			cellTrials(rest) == 0 || cellTrials(rest) >= cellTrials(plan) {
			t.Fatalf("shard %d relaunch ran %+v, want a non-empty strict suffix of %v", k, as[1], plan)
		}
		banked += cellTrials(plan) - cellTrials(rest)
		// The bank is spent into the partial: no checkpoint stays behind.
		if _, err := os.Stat(PartialPath(dir, k, shards) + ".ckpt"); !os.IsNotExist(err) {
			t.Fatalf("shard %d left its checkpoint behind (stat: %v)", k, err)
		}
	}
	if st.TrialsResumed != banked {
		t.Fatalf("TrialsResumed = %d, want the %d trials the relaunches did not run", st.TrialsResumed, banked)
	}
}

// stealChild reports whether task is a re-split child of a stolen
// straggler rather than a primary shard: children write .steal-* partials.
func stealChild(task Task) bool { return strings.Contains(task.OutPath, ".steal-") }

// TestSchedulerStealsStraggler: a shard that checkpoints a prefix and then
// stalls is cancelled by the watchdog and its remainder re-split across
// fresh sub-workers. The checkpointed prefix is never recomputed (zero lost
// trials), the sub-plans tile the remainder exactly, TrialsStolen counts
// precisely the re-split work, the merge stays byte-identical, and a job
// whose finishing workers all report honest final events reads done =
// total although the straggler's own tally stopped short.
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
		enc := json.NewEncoder(stderr)
		if stealChild(task) {
			// Re-split child: compute exactly the handed plan.
			mu.Lock()
			subPlans = append(subPlans, *task.Plan)
			mu.Unlock()
			res, err := spec.RunPlan(ctx, *task.Plan)
			if err != nil {
				return err
			}
			cells := len(spec.Cells()) + len(spec.BeamCells())
			enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: cells, Total: cells})
			return res.WriteFile(task.OutPath)
		}
		if task.Shard == 1 {
			plan := *task.Plan
			prefix := fleet.ShardPlan{
				Index: plan.Index, Count: plan.Count,
				Injection: plan.Injection.Split(0, 2),
				Beam:      plan.Beam.Split(0, 2),
			}
			part, err := spec.RunPlan(ctx, prefix)
			if err != nil {
				return err
			}
			if err := fleet.WriteAtomic(task.CheckpointPath, part.WriteJSON); err != nil {
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
		halt := sync.OnceFunc(func() { close(stop); <-stopped })
		defer halt()
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
		res, err := spec.RunPlan(ctx, *task.Plan)
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
		halt()
		enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: 1000, Total: 1000})
		return res.WriteFile(task.OutPath)
	})

	sched, err := NewScheduler(Options{
		Shards: shards, Launcher: launcher, Dir: t.TempDir(),
		CheckpointEvery: 2,
		StealInterval:   50 * time.Millisecond,
		Logf:            logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	job, err := sched.Submit(spec, nil, nil)
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
	ckPath := filepath.Join(t.TempDir(), "prefix.ckpt")
	banked, err := spec.RunPlan(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteAtomic(ckPath, banked.WriteJSON); err != nil {
		t.Fatal(err)
	}
	_, rest, err := fleet.LoadCheckpoint(ckPath, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	wantStolen := int64(rest.Injection.N*len(spec.Cells()) + rest.Beam.N*len(spec.BeamCells()))
	st := job.Status()
	if st.TrialsStolen != wantStolen {
		t.Fatalf("TrialsStolen = %d, want %d (the remainder past the checkpoint)", st.TrialsStolen, wantStolen)
	}
	if st.Done != st.Total {
		t.Fatalf("job done after a steal reads Done=%d Total=%d", st.Done, st.Total)
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

// TestSchedulerStealsAfterRetry: one shard banks a quarter of its plan and
// crashes; its relaunch runs the remainder, banks half of that and stalls,
// and the watchdog steals it. The re-split children compute only what
// neither the bank nor the newest checkpoint covers, and the merge is
// byte-identical to the monolithic run.
func TestSchedulerStealsAfterRetry(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	const shards = 2
	half := func(p fleet.ShardPlan, ways int) fleet.ShardPlan {
		p.Injection, p.Beam = p.Injection.Split(0, ways), p.Beam.Split(0, ways)
		return p
	}

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
	var relaunch fleet.ShardPlan
	var subPlans []fleet.ShardPlan
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		spec, err := fleet.ReadSpecFile(task.SpecPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stderr)
		switch {
		case stealChild(task):
			mu.Lock()
			subPlans = append(subPlans, *task.Plan)
			mu.Unlock()
			res, err := spec.RunPlan(ctx, *task.Plan)
			if err != nil {
				return err
			}
			return res.WriteFile(task.OutPath)
		case task.Shard == 1:
			// Bank a prefix of the plan handed: a quarter on the first
			// attempt, then half of the remainder on the relaunch.
			ways := 4
			if task.Attempt > 0 {
				ways = 2
				mu.Lock()
				relaunch = *task.Plan
				mu.Unlock()
			}
			part, err := spec.RunPlan(ctx, half(*task.Plan, ways))
			if err != nil {
				return err
			}
			if err := fleet.WriteAtomic(task.CheckpointPath, part.WriteJSON); err != nil {
				return err
			}
			if task.Attempt == 0 {
				return errors.New("synthetic crash after the first checkpoint")
			}
			enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: 1, Total: 100})
			<-ctx.Done()
			return ctx.Err()
		}
		// Shard 0: steady progress until the steal is underway.
		for i := 1; ; i++ {
			select {
			case <-stealSeen:
				res, err := spec.RunPlan(ctx, *task.Plan)
				if err != nil {
					return err
				}
				enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: 1000, Total: 1000})
				return res.WriteFile(task.OutPath)
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
				enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: min(i, 999), Total: 1000})
			}
		}
	})
	sched, err := NewScheduler(Options{
		Shards: shards, Launcher: launcher, Dir: t.TempDir(),
		Retries: 1, Backoff: time.Millisecond,
		CheckpointEvery: 2, StealInterval: 50 * time.Millisecond,
		Logf: logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	job, err := sched.Submit(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("%v\n%s", err, logs.joined())
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("merge after a retry then a steal not byte-identical to the monolithic run")
	}

	plan, err := spec.Plan(1, shards)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	first := half(plan, 4)
	if relaunch.Injection.Offset != first.Injection.End() || relaunch.Beam.Offset != first.Beam.End() {
		t.Fatalf("relaunch ran %+v, want the plan %+v past the banked quarter %+v", relaunch, plan, first)
	}
	second := half(relaunch, 2)
	injN, beamN := 0, 0
	for _, sp := range subPlans {
		if sp.Injection.N > 0 && sp.Injection.Offset < second.Injection.End() ||
			sp.Beam.N > 0 && sp.Beam.Offset < second.Beam.End() {
			t.Fatalf("child plan %+v recomputes banked trials (banked up to %+v)", sp, second)
		}
		injN += sp.Injection.N
		beamN += sp.Beam.N
	}
	if injN != plan.Injection.End()-second.Injection.End() || beamN != plan.Beam.End()-second.Beam.End() {
		t.Fatalf("children cover %d+%d trials, want the %+v past %+v", injN, beamN, plan, second)
	}
	cells, beamCells := len(spec.Cells()), len(spec.BeamCells())
	st := job.Status()
	if want := int64(first.Injection.N*cells + first.Beam.N*beamCells); st.TrialsResumed != want {
		t.Fatalf("TrialsResumed = %d, want the %d the relaunch banked", st.TrialsResumed, want)
	}
	if want := int64(injN*cells + beamN*beamCells); st.TrialsStolen != want {
		t.Fatalf("TrialsStolen = %d, want the %d the children ran", st.TrialsStolen, want)
	}
}

// TestShardRunStateMachine: a row's outcome claim is the one decision point
// between a shard's own goroutine and the straggler watch — the first claim
// owns the outcome, every later claim is refused, and only a successful
// steal cancels the shard.
func TestShardRunStateMachine(t *testing.T) {
	for _, tc := range []struct {
		name      string
		steps     []outcome // in order
		want      []bool
		cancelled bool
	}{
		{"finish then steal", []outcome{finished, stolen}, []bool{true, false}, false},
		{"steal then finish", []outcome{stolen, finished}, []bool{true, false}, true},
		{"double steal", []outcome{stolen, stolen}, []bool{true, false}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sr := newShardRun(context.Background(), Task{}, 0, nil)
			defer sr.cancel()
			tab := newWorkerTable(1, nil)
			tab.add(sr, true)
			for i, step := range tc.steps {
				if got := tab.claim(sr.key, step); got != tc.want[i] {
					t.Fatalf("claim %d (%v) = %v, want %v", i+1, step, got, tc.want[i])
				}
			}
			if got := sr.ctx.Err() != nil; got != tc.cancelled {
				t.Fatalf("shard context cancelled = %v, want %v", got, tc.cancelled)
			}
		})
	}
}

// TestSchedulerCloseDuringSteal: Close lands while a stolen straggler's
// children are one running, one queued behind the two-slot budget. Close
// returns in bounded time, the job reads cancelled, and nothing is refolded
// into the straggler's partial.
func TestSchedulerCloseDuringSteal(t *testing.T) {
	const shards = 2
	childStarted := make(chan struct{}, stealWays)
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		spec, err := fleet.ReadSpecFile(task.SpecPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stderr)
		switch {
		case stealChild(task): // re-split child: hold its slot until cancelled
			childStarted <- struct{}{}
		case task.Shard == 1: // straggler: bank half its plan, report once, stall
			plan := *task.Plan
			part, err := spec.RunPlan(ctx, fleet.ShardPlan{
				Index: plan.Index, Count: plan.Count,
				Injection: plan.Injection.Split(0, 2), Beam: plan.Beam.Split(0, 2),
			})
			if err != nil {
				return err
			}
			if err := fleet.WriteAtomic(task.CheckpointPath, part.WriteJSON); err != nil {
				return err
			}
			enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: 1, Total: 100})
		default: // healthy shard: steady progress, never finishes
			for i := 1; ctx.Err() == nil; i++ {
				enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: i, Total: 1000})
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Millisecond):
				}
			}
		}
		<-ctx.Done()
		return ctx.Err()
	})
	dir := t.TempDir()
	sched, err := NewScheduler(Options{
		Shards: shards, Launcher: launcher, Dir: dir, MaxConcurrent: 2,
		CheckpointEvery: 2, StealInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sched.Submit(testSweep(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-childStarted:
	case <-time.After(30 * time.Second):
		t.Fatal("the straggler was never stolen and re-split")
	}
	select {
	case <-childStarted:
		t.Fatal("both children run although the healthy shard holds one of two slots")
	case <-time.After(50 * time.Millisecond):
	}
	closed := make(chan struct{})
	go func() {
		sched.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return during a steal")
	}
	if st := job.Status(); st.State != JobCancelled {
		t.Fatalf("job closed during a steal reads %s, want cancelled", st.State)
	}
	if _, err := os.Stat(PartialPath(filepath.Join(dir, job.ID()), 1, shards)); !os.IsNotExist(err) {
		t.Fatalf("re-split children were refolded into the straggler's partial after Close (stat: %v)", err)
	}
}
