package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phirel/internal/fault"
	"phirel/internal/fleet"
)

// The launcher conformance suite: one behavioural table executed against
// every Launcher backend — Exec (real subprocesses), SSH and Kubectl (the
// test binary standing in for ssh and for kubectl, spec over stdin,
// partial over stdout) and Func (an in-process LauncherFunc, the leg the
// race job runs). Every current and future backend must satisfy the same
// contract the supervisor is built on:
//
//   - a K-way fan-out merges byte-identical to the monolithic sweep and its
//     aggregated progress stream converges (bit-identical K-way merge);
//   - a worker that dies on its first attempt is relaunched within the
//     retry budget and the merge still holds (retry/backoff rotation —
//     each transport's rotation specifics, ssh host round-robin and
//     per-attempt pod names, are locked by their own unit tests);
//   - a worker that hangs is killed by the per-attempt timeout and the
//     failure reads as a timeout, within bounded wall clock (timeout→kill);
//   - a permanently failing fan-out names every failed shard, carries each
//     shard's diagnostic stderr tail, and surfaces the backend's native
//     failure evidence (stderr tail surfaced);
//   - a worker that "succeeds" while leaving an unusable artifact is caught
//     by revalidation and retried (corrupt-partial revalidation);
//   - a worker that "succeeds" with a well-formed partial at its own
//     position but another shard's ranges is caught by the plan check,
//     named, and retried, not left for the merge to reject the whole job
//     (wrong-range revalidation).
//   - a worker killed mid-shard after landing a checkpoint is relaunched
//     on the remainder: the supervisor banks the checkpoint, the retry's
//     argv carries exactly the trials it does not cover as its -plan and
//     no checkpoint to read, and the merge still holds (preemption resume).
//
// New backends plug in by adding a confFixture; the table does the rest.

// confMode selects which failure a fixture injects into its workers.
type confMode int

const (
	confClean          confMode = iota
	confCrashOnce               // every shard fails its first attempt with a real worker error
	confHangShard0              // shard 0 never finishes on its own; only a kill ends it
	confAlwaysCrash             // every attempt of every shard fails, leaving a diagnostic tail line
	confCorruptOnce             // every shard's first attempt exits cleanly with an unusable partial
	confPreempt                 // every shard dies right after its first checkpoint; the retry must resume
	confWrongRangeOnce          // every shard's first attempt exits cleanly with another shard's ranges
)

// confFixture adapts one Launcher backend to the conformance table.
type confFixture struct {
	name string
	// subprocess fixtures exec real worker processes; they are skipped in
	// -short (the race job) because a child process is invisible to the
	// parent's race detector — the in-process Func fixture keeps the table
	// race-covered.
	subprocess bool
	// failureNeedle is the backend's native failure evidence that must
	// appear in a permanent-failure error: real exit codes for process
	// backends, the worker's own error for Func.
	failureNeedle string
	launcher      func(t *testing.T, mode confMode) Launcher
}

// setWorkerEnv sets mode's failure knobs in the test process environment,
// which the subprocess fixtures' workers inherit.
func setWorkerEnv(t *testing.T, mode confMode) {
	t.Setenv("PHIREL_FAKE_WORKER", "1")
	switch mode {
	case confCrashOnce:
		t.Setenv("PHIREL_FAKE_FAIL_ONCE_DIR", t.TempDir())
	case confHangShard0:
		t.Setenv("PHIREL_FAKE_HANG", "0")
	case confAlwaysCrash:
		t.Setenv("PHIREL_FAKE_FAIL_ALWAYS", "1")
	case confCorruptOnce:
		t.Setenv("PHIREL_FAKE_CORRUPT_ONCE_DIR", t.TempDir())
	case confWrongRangeOnce:
		t.Setenv("PHIREL_FAKE_WRONG_RANGE_ONCE_DIR", t.TempDir())
	}
}

// errFuncCrash is the Func fixture's worker failure.
var errFuncCrash = errors.New("in-process worker crashed")

// funcWorker is the Func fixture's worker: the body the subprocess
// workers run, in-process, with mode's failure injected by shard and
// attempt.
func funcWorker(mode confMode) LauncherFunc {
	return func(ctx context.Context, task Task, stderr io.Writer) error {
		first := task.Attempt == 0
		switch {
		case mode == confAlwaysCrash:
			fmt.Fprintf(stderr, "boom-from-shard-%d\n", task.Shard)
			return errFuncCrash
		case mode == confCrashOnce && first:
			fmt.Fprintf(stderr, "synthetic crash on shard %d\n", task.Shard)
			return errFuncCrash
		case mode == confCorruptOnce && first:
			return os.WriteFile(task.OutPath, []byte(`{"spec"`), 0o644)
		case mode == confHangShard0 && task.Shard == 0:
			<-ctx.Done()
			return ctx.Err()
		}
		spec, err := fleet.ReadSpecFile(task.SpecPath)
		if err != nil {
			return err
		}
		if mode == confWrongRangeOnce && first {
			res, err := wrongRangePartial(ctx, spec, task)
			if err != nil {
				return err
			}
			return res.WriteFile(task.OutPath)
		}
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var onCheckpoint func(fleet.ShardPlan)
		if mode == confPreempt && first {
			onCheckpoint = func(fleet.ShardPlan) {
				fmt.Fprintf(stderr, "shard %d preempted after first checkpoint\n", task.Shard)
				cancel()
			}
		}
		logWorkerTrials(task, WorkerArgs(task, true))
		res, err := runWorker(rctx, spec, task, stderr, onCheckpoint)
		if err != nil {
			return err
		}
		return res.WriteFile(task.OutPath)
	}
}

// sshStandIn is the exec launcher through an ssh transport whose ssh is
// the test binary.
func sshStandIn() ExecLauncher {
	return ExecLauncher{
		Command: []string{"phi-bench"},
		Via:     SSH{Hosts: []string{"nodeA", "nodeB"}, Command: []string{os.Args[0]}},
	}
}

func conformanceFixtures() []confFixture {
	return []confFixture{
		{
			name:          "Exec",
			subprocess:    true,
			failureNeedle: "exit status 3",
			launcher: func(t *testing.T, mode confMode) Launcher {
				setWorkerEnv(t, mode)
				return ExecLauncher{Command: []string{os.Args[0]}}
			},
		},
		{
			name:          "SSH",
			subprocess:    true,
			failureNeedle: "exit status 3",
			launcher: func(t *testing.T, mode confMode) Launcher {
				setWorkerEnv(t, mode)
				return sshStandIn()
			},
		},
		{
			name:          "Kubectl",
			subprocess:    true,
			failureNeedle: "exit status 3",
			launcher: func(t *testing.T, mode confMode) Launcher {
				setWorkerEnv(t, mode)
				return ExecLauncher{
					Command: []string{"phi-bench"},
					Via: Kubectl{
						Command:   []string{os.Args[0]},
						Namespace: "phirel-conf",
						Image:     "ghcr.io/phirel/phi-bench:test",
						RunName:   "conf",
					},
				}
			},
		},
		{
			name:          "Func",
			failureNeedle: errFuncCrash.Error(),
			launcher: func(t *testing.T, mode confMode) Launcher {
				return funcWorker(mode)
			},
		},
	}
}

// confLogs captures supervisor lifecycle lines for a run.
type confLogs struct {
	mu    sync.Mutex
	lines []string
}

func (l *confLogs) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *confLogs) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// TestLauncherConformanceSweep runs the shared behavioural table against
// every launcher backend.
func TestLauncherConformanceSweep(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	for _, fx := range conformanceFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			if fx.subprocess {
				skipInShort(t)
			}

			t.Run("MergeBitIdentical", func(t *testing.T) {
				var mu sync.Mutex
				var last Progress
				merged, err := Run(context.Background(), spec, Options{
					Shards:   3,
					Launcher: fx.launcher(t, confClean),
					Dir:      t.TempDir(),
					Progress: func(p Progress) {
						mu.Lock()
						last = p
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
					t.Fatal("3-way fan-out merge not byte-identical to the monolithic sweep")
				}
				cells := len(spec.Cells()) + len(spec.BeamCells())
				if last.Done != last.Total || last.Total != cells*3 {
					t.Fatalf("final aggregated progress %+v, want %d/%d", last, cells*3, cells*3)
				}
			})

			t.Run("CrashRetryRecovers", func(t *testing.T) {
				logs := &confLogs{}
				merged, err := Run(context.Background(), spec, Options{
					Shards:   2,
					Launcher: fx.launcher(t, confCrashOnce),
					Dir:      t.TempDir(),
					Retries:  1, Backoff: time.Millisecond,
					Logf: logs.logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
					t.Fatal("merge after first-attempt crashes not byte-identical")
				}
				if !strings.Contains(logs.joined(), "retry 1/1") {
					t.Fatalf("supervisor never logged the relaunch:\n%s", logs.joined())
				}
			})

			t.Run("TimeoutKillsHungWorker", func(t *testing.T) {
				start := time.Now()
				_, err := Run(context.Background(), spec, Options{
					Shards:   2,
					Launcher: fx.launcher(t, confHangShard0),
					Dir:      t.TempDir(),
					Timeout:  500 * time.Millisecond, Retries: 0,
				})
				if err == nil {
					t.Fatal("fan-out with a hung worker succeeded")
				}
				if !strings.Contains(err.Error(), "timed out after") {
					t.Fatalf("hung worker not reported as a timeout: %v", err)
				}
				if elapsed := time.Since(start); elapsed > 30*time.Second {
					t.Fatalf("kill took %s; the hung worker was not reaped", elapsed)
				}
			})

			t.Run("PermanentFailureSurfacesTails", func(t *testing.T) {
				_, err := Run(context.Background(), spec, Options{
					Shards:   3,
					Launcher: fx.launcher(t, confAlwaysCrash),
					Dir:      t.TempDir(),
					Retries:  1, Backoff: time.Millisecond,
				})
				if err == nil {
					t.Fatal("fan-out with only crashing workers succeeded")
				}
				msg := err.Error()
				if !strings.Contains(msg, "3 of 3 shards failed permanently") {
					t.Fatalf("error does not summarise the failures: %s", msg)
				}
				for k := 0; k < 3; k++ {
					if !strings.Contains(msg, fmt.Sprintf("shard %d/3 failed after 2 attempt", k+1)) {
						t.Fatalf("error does not report shard %d/3's attempts: %s", k+1, msg)
					}
					if !strings.Contains(msg, fmt.Sprintf("boom-from-shard-%d", k)) {
						t.Fatalf("error does not carry shard %d's stderr tail: %s", k, msg)
					}
				}
				if !strings.Contains(msg, fx.failureNeedle) {
					t.Fatalf("error misses the backend's native failure evidence %q: %s", fx.failureNeedle, msg)
				}
			})

			t.Run("CorruptPartialRevalidated", func(t *testing.T) {
				logs := &confLogs{}
				merged, err := Run(context.Background(), spec, Options{
					Shards:   2,
					Launcher: fx.launcher(t, confCorruptOnce),
					Dir:      t.TempDir(),
					Retries:  1, Backoff: time.Millisecond,
					Logf: logs.logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
					t.Fatal("merge after corrupt-partial retries not byte-identical")
				}
				// The clean exit must have been caught by revalidation, not
				// waved through.
				joined := logs.joined()
				if !strings.Contains(joined, "unusable") && !strings.Contains(joined, "corrupt") {
					t.Fatalf("supervisor never reported the corrupt partial:\n%s", joined)
				}
			})

			t.Run("WrongRangeRevalidated", func(t *testing.T) {
				logs := &confLogs{}
				merged, err := Run(context.Background(), spec, Options{
					Shards:   2,
					Launcher: fx.launcher(t, confWrongRangeOnce),
					Dir:      t.TempDir(),
					Retries:  1, Backoff: time.Millisecond,
					Logf: logs.logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
					t.Fatal("merge after wrong-range retries not byte-identical")
				}
				joined := logs.joined()
				for k := 1; k <= 2; k++ {
					if !strings.Contains(joined, fmt.Sprintf("shard %d/2: attempt 1 failed: worker ran plan", k)) {
						t.Fatalf("supervisor never named shard %d/2's wrong ranges:\n%s", k, joined)
					}
				}
			})

			t.Run("PreemptionResumesFromCheckpoint", func(t *testing.T) {
				// Every shard is killed right after its first checkpoint
				// lands; the relaunch must mount that checkpoint and compute
				// exactly the remainder. The knobs ride the test process
				// environment, which every fixture inherits — set them
				// before the fixture captures its worker env.
				trialsDir := t.TempDir()
				t.Setenv("PHIREL_FAKE_TRIALS_LOG_DIR", trialsDir)
				t.Setenv("PHIREL_FAKE_DIE_AFTER_CKPT_DIR", t.TempDir())
				logs := &confLogs{}
				merged, err := Run(context.Background(), spec, Options{
					Shards:   2,
					Launcher: fx.launcher(t, confPreempt),
					Dir:      t.TempDir(),
					Retries:  1, Backoff: time.Millisecond,
					CheckpointEvery: 2,
					Logf:            logs.logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
					t.Fatal("merge after mid-shard preemptions not byte-identical")
				}
				if !strings.Contains(logs.joined(), "banked") {
					t.Fatalf("supervisor never banked a checkpoint on relaunch:\n%s", logs.joined())
				}
				for k := 0; k < 2; k++ {
					plan, err := spec.Plan(k, 2)
					if err != nil {
						t.Fatal(err)
					}
					attempts := readWorkerTrials(t, trialsDir, k)
					if len(attempts) != 2 {
						t.Fatalf("shard %d ran %d attempts, want 2 (preempted + relaunched)", k, len(attempts))
					}
					if attempts[0].Plan != plan {
						t.Fatalf("shard %d first attempt ran %v, want the whole plan %v", k, attempts[0].Plan, plan)
					}
					relaunch := attempts[1]
					checkRemainder(t, k, plan, relaunch)
					if relaunch.Plan.Injection.N+relaunch.Plan.Beam.N >= plan.Injection.N+plan.Beam.N {
						t.Fatalf("shard %d relaunch recomputes the whole shard: %v vs plan %v", k, relaunch.Plan, plan)
					}
				}
			})
		})
	}
}

// checkRemainder requires a relaunched worker's argv to carry its remainder
// as -plan, a suffix of the shard's plan, and no checkpoint to read: the
// only checkpoint flag a worker gets is where to write its own.
func checkRemainder(t *testing.T, k int, plan fleet.ShardPlan, relaunch workerTrials) {
	t.Helper()
	rest := relaunch.Plan
	if rest.Index != plan.Index || rest.Count != plan.Count ||
		rest.Injection.End() != plan.Injection.End() || rest.Beam.End() != plan.Beam.End() ||
		rest.Injection.Offset < plan.Injection.Offset || rest.Beam.Offset < plan.Beam.Offset {
		t.Fatalf("shard %d relaunch ran %v, not a suffix of the plan %v", k, rest, plan)
	}
	i := slices.Index(relaunch.Args, "-plan")
	if i < 0 || i+1 >= len(relaunch.Args) || relaunch.Args[i+1] != FormatPlanArg(rest) {
		t.Fatalf("shard %d relaunch argv %q does not carry the remainder -plan %s", k, relaunch.Args, FormatPlanArg(rest))
	}
	for i, a := range relaunch.Args {
		if a == "-resume-from" || strings.HasSuffix(a, ".ckpt") && relaunch.Args[i-1] != "-checkpoint-out" {
			t.Fatalf("shard %d relaunch argv %q hands the worker a checkpoint to read", k, relaunch.Args)
		}
	}
}

// TestRemoteCheckpointNotMountedRecomputes: through the ssh stand-in, every
// shard is preempted after its first checkpoint lands, but the checkpoints
// are local to the worker, as on a real ssh host. The supervisor finds
// nothing at the checkpoint path, says so in one line naming the shard and
// the path, and relaunches the whole plan; the merge still holds.
func TestRemoteCheckpointNotMountedRecomputes(t *testing.T) {
	skipInShort(t)
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	trialsDir := t.TempDir()
	t.Setenv("PHIREL_FAKE_WORKER", "1")
	t.Setenv("PHIREL_FAKE_TRIALS_LOG_DIR", trialsDir)
	t.Setenv("PHIREL_FAKE_DIE_AFTER_CKPT_DIR", t.TempDir())
	t.Setenv("PHIREL_FAKE_CKPT_LOCAL_DIR", t.TempDir())
	logs := &confLogs{}
	dir := t.TempDir()
	merged, err := Run(context.Background(), spec, Options{
		Shards: 2, Launcher: sshStandIn(), Dir: dir,
		Retries: 1, Backoff: time.Millisecond, CheckpointEvery: 2,
		Logf: logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("merge after unmounted checkpoints not byte-identical")
	}
	joined := logs.joined()
	if strings.Contains(joined, "banked") {
		t.Fatalf("supervisor banked a checkpoint it cannot see:\n%s", joined)
	}
	for k := 0; k < 2; k++ {
		path := PartialPath(dir, k, 2) + ".ckpt"
		if abs, err := filepath.Abs(path); err == nil {
			path = abs
		}
		if n := strings.Count(joined, fmt.Sprintf("shard %d/2: no readable checkpoint at %s", k+1, path)); n != 1 {
			t.Fatalf("shard %d/2: %d lines naming the unmounted checkpoint %s, want 1:\n%s", k+1, n, path, joined)
		}
		plan, err := spec.Plan(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		attempts := readWorkerTrials(t, trialsDir, k)
		if len(attempts) != 2 || attempts[1].Plan != plan {
			t.Fatalf("shard %d attempts %+v, want the whole plan %v relaunched", k, attempts, plan)
		}
	}
}

// TestExecStdoutCarriesOnlyTheArtifact: a local worker that writes anything
// after its partial on stdout has broken the protocol; its attempt fails
// validation like a truncated one, and the retry budget runs out on it.
func TestExecStdoutCarriesOnlyTheArtifact(t *testing.T) {
	skipInShort(t)
	t.Setenv("PHIREL_FAKE_WORKER", "1")
	t.Setenv("PHIREL_FAKE_STDOUT", "noise")
	_, err := Run(context.Background(), testSweep(), Options{
		Shards: 1, Launcher: ExecLauncher{Command: []string{os.Args[0]}}, Dir: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "followed by other data") {
		t.Fatalf("a worker writing tables after its partial: %v, want a validation failure", err)
	}
}

// TestExecKilledMidStreamLeavesNoPartial: a local worker killed after
// streaming half its partial leaves neither the partial nor its temp file.
func TestExecKilledMidStreamLeavesNoPartial(t *testing.T) {
	skipInShort(t)
	t.Setenv("PHIREL_FAKE_WORKER", "1")
	t.Setenv("PHIREL_FAKE_STDOUT", "stall")
	dir := t.TempDir()
	spec := testSweep()
	plan, err := spec.Plan(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	task := Task{Count: 1, SpecPath: filepath.Join(dir, SpecFileName), OutPath: PartialPath(dir, 0, 1), Plan: &plan}
	if err := spec.WriteSpecFile(task.SpecPath); err != nil {
		t.Fatal(err)
	}
	// Kill the worker once its partial has begun to land in the temp file.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			if tmps, _ := filepath.Glob(task.OutPath + ".tmp-*"); len(tmps) == 1 {
				if st, err := os.Stat(tmps[0]); err == nil && st.Size() > 0 {
					cancel()
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	var stderr bytes.Buffer
	if err := (ExecLauncher{Command: []string{os.Args[0]}}).Launch(ctx, task, &stderr); !errors.Is(err, context.Canceled) {
		t.Fatalf("worker killed mid-stream: %v, want the cancellation (stderr %s)", err, stderr.String())
	}
	if _, err := os.Stat(task.OutPath); !os.IsNotExist(err) {
		t.Fatalf("a worker killed mid-stream left %s (stat: %v)", task.OutPath, err)
	}
	if tmps, _ := filepath.Glob(task.OutPath + ".tmp-*"); len(tmps) != 0 {
		t.Fatalf("a worker killed mid-stream left its temp file %v", tmps)
	}
}

// TestExecMixedHostFeatures is a heterogeneous fleet on one box: the odd
// shards' workers run with every optional CPU feature switched off
// (GODEBUG=cpu.all=off, standing in for an amd64 host without AVX or FMA),
// the even shards' with the default environment. The grid includes
// LavaMD, whose exp is where a host-dependent libm would show, and the
// merged bytes must still equal the monolithic run.
func TestExecMixedHostFeatures(t *testing.T) {
	skipInShort(t)
	spec := fleet.Sweep{
		Benchmarks:     []string{"DGEMM", "LavaMD"},
		Models:         []fault.Model{fault.Single, fault.Random},
		N:              8,
		BeamRuns:       300,
		BeamBenchmarks: []string{"LavaMD"},
		Seed:           1701,
		BenchSeed:      1,
		Workers:        2,
	}
	_, monoJSON := monoArtifact(t, spec)
	t.Setenv("PHIREL_FAKE_WORKER", "1")
	plain := ExecLauncher{Command: []string{os.Args[0]}}
	featuresOff := ExecLauncher{Command: []string{os.Args[0]}, Env: append(os.Environ(), "GODEBUG=cpu.all=off")}
	var off atomic.Int32
	merged, err := Run(context.Background(), spec, Options{
		Shards: 4,
		Dir:    t.TempDir(),
		Launcher: LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
			if task.Shard%2 == 1 {
				off.Add(1)
				return featuresOff.Launch(ctx, task, stderr)
			}
			return plain.Launch(ctx, task, stderr)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if off.Load() != 2 {
		t.Fatalf("%d shards ran with the features off, want 2", off.Load())
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("a fan-out mixing feature-less and default workers is not byte-identical to the monolithic sweep")
	}
}
