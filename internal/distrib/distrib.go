// Package distrib fans a fleet.Sweep out across shard worker processes and
// folds the resulting partial artifacts back into one merged result,
// byte-identical to the monolithic Sweep.Run. It is the execution layer the
// sharding algebra of internal/fleet was built for: the paper's campaigns
// need tens of thousands of trials per cell, far more than one process (or
// one CI job) should run, and a shard partial already carries everything a
// merge needs to fold results computed anywhere.
//
// The moving parts:
//
//   - Scheduler.Submit writes the shared sweep spec file and lays out the
//     shard tasks (one canonical partial path per shard). Every task carries
//     its explicit plan, so the supervisor sends workers only -plan; a cached
//     prefix, when given, becomes shard 0's partial, held as a value, and
//     the tasks split only what it is missing. -shard k/K is operator sugar for the balanced plan.
//   - Launcher runs one shard worker to completion. ExecLauncher is the one
//     exec path: the worker reads the spec on stdin and writes its partial
//     on stdout, locally or, with an optional transport prefix, through an
//     ssh session (SSH) or a pod started by kubectl run (Kubectl), so no
//     shared filesystem is needed; LauncherFunc adapts an in-process
//     function.
//   - Run supervises the fan-out: a bounded launch pool, a per-attempt
//     timeout, bounded retry with exponential backoff for crashed,
//     timed-out or corrupt-output workers, per-shard stderr tails surfaced
//     when a shard fails permanently, and one worker table per job whose
//     rows hold each worker's progress (from its JSONL stderr events), its
//     straggler rate window and its claim: finished, or stolen and re-split.
//     Every worker of a job, primary or child of a stolen straggler, takes
//     one path (jobRun.run); a job reads done only after its seal ran.
//   - Continuation is the supervisor's alone. A worker runs the plan it is
//     handed and may land checkpoints; it never reads one. When a
//     checkpointing shard is relaunched or stolen, the supervisor loads its
//     newest checkpoint once, adds it to the shard's banks, launches only
//     the remainder and folds banks and remainder into the shard's partial.
//
// # The Launcher contract
//
// Every backend — current and future — must satisfy the same behavioural
// contract, enforced by the launcher conformance suite
// (conformance_test.go), which executes one shared table against the Exec
// launcher locally, over SSH and over Kubectl (the test binary standing in
// for ssh and kubectl), and an in-process LauncherFunc:
//
//   - Blocking launch: Launch returns only once the worker is finished,
//     with the shard's validated-parseable partial at task.OutPath on
//     success. A K-way fan-out must merge byte-identical to the monolithic
//     run, and worker progress must reach the supervisor's worker table.
//   - Kill on cancellation: when ctx ends (the per-attempt timeout), the
//     backend must actually stop the worker — kill the process, interrupt
//     the ssh or kubectl client — and return ctx.Err() so the failure
//     reads as a timeout.
//   - Retries are the supervisor's: a failed attempt returns an error and
//     nothing else relaunches workers (pods run with --restart=Never).
//     Backends rotate what they can per attempt — ssh rotates hosts,
//     kubectl names a fresh pod per attempt — so the retry budget routes
//     around infrastructure, never collides with it.
//   - Diagnostics on stderr: everything a worker says flows to the stderr
//     writer, so permanent failures surface each shard's tail alongside
//     the backend's native failure evidence (exit codes).
//   - No trusted exits: a clean exit with a missing, truncated or
//     mislabelled partial, or one of another sweep, is a failed attempt:
//     the supervisor checks every artifact against the job's spec with
//     fleet.CheckPartial and retries the one bad worker.
//
// The end state is fleet.MergeSweepResults over the K partials validation
// decoded — each read once — whose fold repeats CheckPartial on every part
// and checks index coverage and tiling, backstopping the supervisor.
package distrib

import (
	"fmt"
	"os"
	"path/filepath"

	"phirel/internal/fleet"
)

// Task describes one shard-worker launch.
type Task struct {
	// Shard is the 0-based shard index; Count is the total shard count K.
	Shard, Count int
	// SpecPath is the sweep spec file shared by every worker of the
	// fan-out (fleet.WriteSpecFile format, consumed by phi-bench -spec).
	SpecPath string
	// OutPath is where this shard's partial artifact must land locally.
	OutPath string
	// Attempt is the 0-based attempt number; the supervisor increments it
	// on every relaunch.
	Attempt int
	// Plan is the trial ranges the worker runs (phi-bench -plan), and the
	// validator requires the partial's recorded plan to equal it. Its
	// Index/Count agree with Shard/Count. The supervisor sets it on every
	// task it launches, to what its banks of checkpointed trials leave of
	// the shard's plan; a task without one stands for the balanced k-of-K
	// split (phi-bench -shard), which only a hand-built task uses.
	Plan *fleet.ShardPlan
	// CheckpointPath, when non-empty, is where the worker periodically
	// lands a valid shard-partial checkpoint (phi-bench -checkpoint-out),
	// and where the supervisor looks for banked progress when it relaunches
	// or steals the shard. The path is used verbatim on the worker side, so
	// a worker on an ssh host or in a pod needs it on storage both sides
	// can reach; otherwise a relaunch recomputes its whole plan.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in trials (phi-bench
	// -checkpoint-every); meaningful only with CheckpointPath.
	CheckpointEvery int
}

// ShardArg renders the task's position in phi-bench's 1-based -shard form.
func (t Task) ShardArg() string { return fmt.Sprintf("%d/%d", t.Shard+1, t.Count) }

// SpecFileName is the name the planner gives the shared spec file inside the
// fan-out working directory.
const SpecFileName = "sweep-spec.json"

// PartialPath is the canonical partial artifact path for shard k (0-based)
// of count in dir: sweep-shard-k-of-K.json, the names phi-merge's glob
// (make fleet-check) picks up from a kept fan-out directory.
func PartialPath(dir string, k, count int) string {
	return filepath.Join(dir, fmt.Sprintf("sweep-shard-%d-of-%d.json", k+1, count))
}

// layout writes the shared spec file into dir (which must exist) and lays
// out a fan-out's shard tasks, every one with its explicit plan. parts is the
// fan-out's merge set, one slot per partial in merge order, which the
// supervisor fills as partials validate; fleet.MergeSweepResults over the
// full set reconstructs the sweep byte-identical to a monolithic run. With
// cached nil the sweep splits shards ways, balanced, and every slot starts
// empty. With cached — a complete, base-equal artifact covering a strict
// prefix of spec's trial space — the prefix is sliced into slot 0 as a value
// (no worker ever runs for it, and no file is written for it), and the
// shards tasks split only the missing trial ranges. dir is absolutized
// first: a task's checkpoint path goes into the worker's argv, a worker may
// run with a different working directory (ExecLauncher.Dir), and the
// supervisor reads the checkpoint back from that same path.
func layout(dir string, spec fleet.Sweep, cached *fleet.SweepResult, shards int) (tasks []Task, parts []*fleet.SweepResult, err error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("distrib: need at least 1 shard, got %d", shards)
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, nil, fmt.Errorf("distrib: %w", err)
	}
	var plans []fleet.ShardPlan
	if cached == nil {
		plans = make([]fleet.ShardPlan, shards)
		for k := range plans {
			if plans[k], err = spec.Plan(k, shards); err != nil {
				return nil, nil, err
			}
		}
	} else if plans, err = spec.PlanWithPrefix(cached.Spec.N, cached.Spec.BeamRuns, shards); err != nil {
		return nil, nil, err
	}
	count := len(plans)
	parts = make([]*fleet.SweepResult, count)
	text, err := spec.SpecString()
	if err != nil {
		return nil, nil, err
	}
	first := 0
	if cached != nil {
		if parts[0], err = fleet.SliceResult(cached, spec, plans[0]); err != nil {
			return nil, nil, err
		}
		first = 1
	}
	specPath := filepath.Join(dir, SpecFileName)
	if err := os.WriteFile(specPath, []byte(text), 0o644); err != nil {
		return nil, nil, fmt.Errorf("distrib: %w", err)
	}
	for k := first; k < count; k++ {
		tasks = append(tasks, Task{
			Shard: k, Count: count, SpecPath: specPath, OutPath: PartialPath(dir, k, count), Plan: &plans[k],
		})
	}
	return tasks, parts, nil
}
