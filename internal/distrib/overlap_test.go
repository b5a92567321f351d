package distrib

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phirel/internal/fleet"
)

func TestPlanArgRoundTrip(t *testing.T) {
	plans := []fleet.ShardPlan{
		{Index: 0, Count: 1, Injection: fleet.TrialRange{Offset: 0, N: 600}},
		{Index: 1, Count: 3, Injection: fleet.TrialRange{Offset: 600, N: 600}, Beam: fleet.TrialRange{Offset: 40, N: 20}},
		{Index: 2, Count: 3},
	}
	for _, p := range plans {
		arg := FormatPlanArg(p)
		// The ssh transport hands argv to a remote shell unquoted; the wire form
		// must never contain shell metacharacters or whitespace.
		if strings.ContainsAny(arg, " \t\"'$&|;<>(){}[]*?\\`") {
			t.Errorf("plan arg %q is not shell-safe", arg)
		}
		back, err := ParsePlanArg(arg)
		if err != nil {
			t.Fatalf("ParsePlanArg(%q): %v", arg, err)
		}
		if back != p {
			t.Errorf("round trip %q: got %+v, want %+v", arg, back, p)
		}
	}
	if FormatPlanArg(plans[1]) != "2/3:600+600:40+20" {
		t.Errorf("wire form changed: %q", FormatPlanArg(plans[1]))
	}
	for _, bad := range []string{
		"", "2/3", "2/3:600+600", "0/3:0+0:0+0", "4/3:0+0:0+0", "2/3:600+600:40+20:extra",
		"2/3:600:40+20", "2/3:-1+600:40+20", "2/3:600+600:40+x", "a/b:0+0:0+0", "2/3:0+0:0+0 ",
	} {
		if _, err := ParsePlanArg(bad); err == nil {
			t.Errorf("ParsePlanArg(%q) accepted", bad)
		}
	}
}

func TestWorkerArgsPlan(t *testing.T) {
	task := Task{Shard: 1, Count: 3, SpecPath: "spec.json", OutPath: "out.json"}
	args := strings.Join(WorkerArgs(task, false), " ")
	if !strings.Contains(args, "-shard 2/3") || strings.Contains(args, "-plan") {
		t.Errorf("balanced task args %q, want -shard and no -plan", args)
	}
	task.Plan = &fleet.ShardPlan{Index: 1, Count: 3, Injection: fleet.TrialRange{Offset: 6, N: 6}}
	args = strings.Join(WorkerArgs(task, false), " ")
	if !strings.Contains(args, "-plan 2/3:6+6:0+0") || strings.Contains(args, "-shard") {
		t.Errorf("explicit-plan task args %q, want -plan and no -shard", args)
	}
}

// TestSchedulerSubmitWithPrefix drives the partial-overlap path end to end
// through the scheduler's Submit with a cached artifact: a cached half-size artifact becomes shard 0 on
// disk, in-process workers compute only the explicit-plan remainders, and
// the merged job result is byte-identical to the monolithic run — with the
// fresh trial count equal to exactly the extension.
func TestSchedulerSubmitWithPrefix(t *testing.T) {
	req := testSweep()
	cachedSpec := req
	cachedSpec.N /= 2
	cachedSpec.BeamRuns /= 4
	cached, err := cachedSpec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mono, err := req.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var freshInj, freshBeam atomic.Int64
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		if task.Shard == 0 {
			t.Errorf("prefix fan-out launched a worker for the cached shard 0: %+v", task)
			return nil
		}
		freshInj.Add(int64(task.Plan.Injection.N))
		freshBeam.Add(int64(task.Plan.Beam.N))
		part, err := req.RunPlan(ctx, *task.Plan)
		if err != nil {
			return err
		}
		return part.WriteFile(task.OutPath)
	})
	const shards = 2
	sched, err := NewScheduler(Options{Shards: shards, Launcher: launcher, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	job, err := sched.Submit(req, cached, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mono, got) {
		t.Fatal("prefix-cached job result differs from monolithic run")
	}
	var monoJSON, gotJSON bytes.Buffer
	if err := mono.WriteJSON(&monoJSON); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON.Bytes(), gotJSON.Bytes()) {
		t.Fatal("prefix-cached artifact not byte-identical to monolithic artifact")
	}
	reqN := req.N
	reqRuns := req.BeamRuns
	if int(freshInj.Load()) != reqN-cachedSpec.N || int(freshBeam.Load()) != reqRuns-cachedSpec.BeamRuns {
		t.Fatalf("fresh workers computed %d+%d trials, want exactly the missing %d+%d",
			freshInj.Load(), freshBeam.Load(), reqN-cachedSpec.N, reqRuns-cachedSpec.BeamRuns)
	}

	// A full-coverage cached artifact has nothing to compute and must be
	// refused — that request is the exact-hit path, not a prefix job.
	if _, err := sched.Submit(req, mono, nil); err == nil {
		t.Fatal("Submit accepted a fully-covering cached artifact")
	}
	// A base mismatch is refused before anything launches.
	other := req
	other.Seed++
	if _, err := sched.Submit(other, cached, nil); err == nil {
		t.Fatal("Submit accepted a base-mismatched cached artifact")
	}
}

// TestValidatePartialPlanMismatch: a worker that exits cleanly but ran
// different ranges than its explicit plan is a failed attempt, caught at
// validation — not at the merge, where the whole job would be blamed.
func TestValidatePartialPlanMismatch(t *testing.T) {
	req := schedSweep()
	cachedSpec := req
	cachedSpec.N /= 2
	cached, err := cachedSpec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		// Run a plan with the right position but wrong ranges.
		wrong := *task.Plan
		wrong.Injection.Offset--
		part, err := req.RunPlan(ctx, wrong)
		if err != nil {
			return err
		}
		return part.WriteFile(task.OutPath)
	})
	sched, err := NewScheduler(Options{
		Shards: 1, Launcher: launcher, Dir: t.TempDir(), Retries: 0,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	job, err := sched.Submit(req, cached, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "ran plan") {
		t.Fatalf("job error %v, want a plan-mismatch validation failure", err)
	}
}
