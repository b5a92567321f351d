package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"phirel/internal/fleet"
)

// TestMain doubles as the shard-worker executable: when re-exec'd with
// PHIREL_FAKE_WORKER=1, the test binary speaks the phi-bench worker
// protocol (spec in, -plan, JSONL progress on stderr, partial out) —
// so the exec and remote launchers are exercised through real
// subprocesses, pipes, exit codes and kills without building
// cmd/phi-bench first. Standing in for ssh or kubectl, it skips the
// transport's own argv.
func TestMain(m *testing.M) {
	if os.Getenv("PHIREL_FAKE_WORKER") == "1" {
		os.Exit(fakeWorker())
	}
	os.Exit(m.Run())
}

// fakeWorker implements the worker side of the launcher contract. Failure
// modes are injected via environment:
//
//	PHIREL_FAKE_FAIL_ONCE_DIR — every shard crashes (exit 3) on its first
//	  attempt, tracked by marker files in the directory, and runs clean on
//	  the retry — the crash-retry path through real exit codes.
//	PHIREL_FAKE_FAIL_ALWAYS — every attempt of every shard crashes (exit 3)
//	  with a "boom-from-shard-k" diagnostic, the conformance suite's
//	  permanent-failure tail line.
//	PHIREL_FAKE_CORRUPT_ONCE_DIR — every shard's first attempt exits 0 but
//	  leaves a truncated artifact (marker-tracked), the clean-exit failure
//	  the supervisor's revalidation must catch.
//	PHIREL_FAKE_WRONG_RANGE_ONCE_DIR — every shard's first attempt exits 0
//	  with a well-formed partial at its own position but another shard's
//	  ranges (marker-tracked), which only the supervisor's plan check can
//	  tell from the right one.
//	PHIREL_FAKE_HANG=k — shard k blocks forever, so only a launcher-side
//	  kill (per-attempt timeout) can end it.
//	PHIREL_FAKE_DIE_AFTER_CKPT_DIR — each shard's first checkpointing
//	  attempt exits 3 right after its first checkpoint lands (marker-
//	  tracked), the mid-shard preemption the elastic resume path exists for.
//	PHIREL_FAKE_TRIALS_LOG_DIR — every attempt appends one JSON line to
//	  trials-<k>.log recording the trials it resumed from a checkpoint and
//	  the trials it set out to compute, so tests can prove a resumed attempt
//	  recomputes exactly the remainder.
func fakeWorker() int {
	args := os.Args[1:]
	// A remote transport puts its own argv first: kubectl's ends in "--",
	// ssh's in the host. Skip through "--" when there is one, then every
	// word before the first flag (the host, the worker binary).
	if i := slices.Index(args, "--"); i >= 0 {
		args = args[i+1:]
	}
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		args = args[1:]
	}
	var task Task
	var specArg, planArg string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-sweep", "-progress-jsonl":
		case "-spec":
			i++
			specArg = args[i]
		case "-plan":
			i++
			planArg = args[i]
		case "-out":
			i++
			task.OutPath = args[i]
		case "-checkpoint-out":
			i++
			task.CheckpointPath = args[i]
		case "-checkpoint-every":
			i++
			task.CheckpointEvery, _ = strconv.Atoi(args[i])
		case "-resume-from":
			i++
			task.ResumeFrom = args[i]
		default:
			fmt.Fprintf(os.Stderr, "fake worker: unexpected arg %q\n", args[i])
			return 2
		}
	}
	p, err := ParsePlanArg(planArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fake worker: bad -plan %q: %v\n", planArg, err)
		return 2
	}
	task.Plan = &p
	task.Shard, task.Count = p.Index, p.Count
	k, outArg := task.Shard, task.OutPath

	if os.Getenv("PHIREL_FAKE_FAIL_ALWAYS") == "1" {
		fmt.Fprintf(os.Stderr, "boom-from-shard-%d\n", k)
		return 3
	}
	if dir := os.Getenv("PHIREL_FAKE_FAIL_ONCE_DIR"); dir != "" {
		marker := filepath.Join(dir, fmt.Sprintf("crashed-%d", k))
		if _, err := os.Stat(marker); errors.Is(err, os.ErrNotExist) {
			os.WriteFile(marker, nil, 0o644)
			fmt.Fprintf(os.Stderr, "synthetic crash on shard %d\n", k)
			return 3
		}
	}
	if dir := os.Getenv("PHIREL_FAKE_CORRUPT_ONCE_DIR"); dir != "" {
		marker := filepath.Join(dir, fmt.Sprintf("corrupted-%d", k))
		if _, err := os.Stat(marker); errors.Is(err, os.ErrNotExist) {
			os.WriteFile(marker, nil, 0o644)
			// "Success" with a truncated artifact — on stdout for the
			// streaming (remote) transports, at the -out path for exec.
			if outArg == "-" {
				fmt.Print(`{"spec"`)
			} else {
				os.WriteFile(outArg, []byte(`{"spec"`), 0o644)
			}
			return 0
		}
	}
	if os.Getenv("PHIREL_FAKE_HANG") == fmt.Sprint(k) {
		// Hold the shard hostage until the launcher kills us. A bare
		// select{} would trip the runtime's deadlock detector and exit
		// instantly; a timer-backed sleep genuinely hangs.
		time.Sleep(time.Hour)
		return 1
	}

	var spec fleet.Sweep
	if specArg == "-" {
		spec, err = fleet.ReadSpec(os.Stdin)
	} else {
		spec, err = fleet.ReadSpecFile(specArg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake worker:", err)
		return 1
	}
	wrongRange := false
	if dir := os.Getenv("PHIREL_FAKE_WRONG_RANGE_ONCE_DIR"); dir != "" {
		marker := filepath.Join(dir, fmt.Sprintf("wrong-range-%d", k))
		if _, err := os.Stat(marker); errors.Is(err, os.ErrNotExist) {
			os.WriteFile(marker, nil, 0o644)
			wrongRange = true
		}
	}
	var onCheckpoint func(fleet.ShardPlan)
	if dir := os.Getenv("PHIREL_FAKE_DIE_AFTER_CKPT_DIR"); dir != "" && task.CheckpointPath != "" {
		marker := filepath.Join(dir, fmt.Sprintf("died-%d", k))
		if _, err := os.Stat(marker); errors.Is(err, os.ErrNotExist) {
			onCheckpoint = func(fleet.ShardPlan) {
				os.WriteFile(marker, nil, 0o644)
				fmt.Fprintf(os.Stderr, "synthetic preemption of shard %d after first checkpoint\n", k)
				os.Exit(3)
			}
		}
	}
	var res *fleet.SweepResult
	if wrongRange {
		res, err = wrongRangePartial(context.Background(), spec, task)
	} else {
		res, err = runWorker(context.Background(), spec, task, os.Stderr, onCheckpoint)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake worker:", err)
		return 1
	}
	if outArg == "-" {
		err = res.WriteJSON(os.Stdout)
	} else {
		err = res.WriteFile(outArg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake worker:", err)
		return 1
	}
	return 0
}

// runWorker is the worker body the subprocess and in-process test workers
// share, as phi-bench -sweep runs it: JSONL progress events to stderr, and
// the task's slice of spec, checkpointed when the task asks (onCheckpoint,
// when set, fires after each checkpoint lands).
func runWorker(ctx context.Context, spec fleet.Sweep, task Task, stderr io.Writer, onCheckpoint func(fleet.ShardPlan)) (*fleet.SweepResult, error) {
	enc := json.NewEncoder(stderr)
	spec.Progress = func(done, total int) {
		enc.Encode(Event{Event: EventName, Shard: task.Shard, Count: task.Count, Done: done, Total: total})
	}
	logWorkerTrials(spec, *task.Plan, task.ResumeFrom, task.Shard)
	return spec.RunPlanCheckpointed(ctx, *task.Plan, fleet.Checkpoint{
		Out: task.CheckpointPath, Every: task.CheckpointEvery, Resume: task.ResumeFrom,
		OnCheckpoint: onCheckpoint,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "fake worker: "+format+"\n", a...)
		},
	})
}

// wrongRangePartial runs the next shard's balanced ranges under task's own
// position: a well-formed partial at the right index and count that only a
// check against the task's plan can reject.
func wrongRangePartial(ctx context.Context, spec fleet.Sweep, task Task) (*fleet.SweepResult, error) {
	other, err := spec.Plan((task.Shard+1)%task.Count, task.Count)
	if err != nil {
		return nil, err
	}
	other.Index = task.Shard
	return spec.RunPlan(ctx, other)
}

// workerTrials is one attempt's accounting line in the
// PHIREL_FAKE_TRIALS_LOG_DIR log: the trials the attempt salvaged from a
// resume checkpoint and the trials it set out to compute, per dimension.
type workerTrials struct {
	Shard        int `json:"shard"`
	ResumedInj   int `json:"resumedInj"`
	ResumedBeam  int `json:"resumedBeam"`
	ComputedInj  int `json:"computedInj"`
	ComputedBeam int `json:"computedBeam"`
}

// logWorkerTrials appends this attempt's resumed/computed split to the
// shard's trials log. Resumed counts come from the same LoadCheckpoint the
// run itself performs, so the log records what the attempt actually did.
func logWorkerTrials(spec fleet.Sweep, plan fleet.ShardPlan, resumeFrom string, k int) {
	dir := os.Getenv("PHIREL_FAKE_TRIALS_LOG_DIR")
	if dir == "" {
		return
	}
	wt := workerTrials{Shard: k, ComputedInj: plan.Injection.N, ComputedBeam: plan.Beam.N}
	if resumeFrom != "" {
		if part, rest, err := fleet.LoadCheckpoint(resumeFrom, spec, plan); err == nil {
			wt.ResumedInj, wt.ResumedBeam = part.Shard.Injection.N, part.Shard.Beam.N
			wt.ComputedInj, wt.ComputedBeam = rest.Injection.N, rest.Beam.N
		}
	}
	line, err := json.Marshal(wt)
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("trials-%d.log", k)),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write(append(line, '\n'))
	f.Close()
}

// readWorkerTrials parses a shard's trials log, one line per attempt.
func readWorkerTrials(t *testing.T, dir string, k int) []workerTrials {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("trials-%d.log", k)))
	if err != nil {
		t.Fatalf("shard %d left no trials log: %v", k, err)
	}
	var out []workerTrials
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var wt workerTrials
		if err := json.Unmarshal([]byte(line), &wt); err != nil {
			t.Fatalf("shard %d trials log line %q: %v", k, line, err)
		}
		out = append(out, wt)
	}
	return out
}

// skipInShort gates the subprocess tests out of the -short race job: a
// worker in its own process is invisible to the parent's race detector, so
// re-running race-instrumented sweeps in children costs minutes and adds
// nothing the conformance suite's in-process Func leg does not cover.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess launches add no race coverage; in-process supervisor tests cover these paths")
	}
}
