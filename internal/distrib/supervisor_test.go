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
	"strings"
	"sync"
	"testing"
	"time"

	_ "phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/fleet"
)

// testSweep is the small mixed-grid fixture the fan-out tests share: one
// injection cell plus two beam cells (ECC ablation), sized so a handful of
// monolith-equivalent runs stay fast even under the race detector.
func testSweep() fleet.Sweep {
	n, runs := 12, 40
	if testing.Short() {
		n, runs = 6, 20
	}
	return fleet.Sweep{
		Benchmarks:      []string{"DGEMM"},
		Models:          []fault.Model{fault.Single},
		N:               n,
		BeamRuns:        runs,
		BeamBenchmarks:  []string{"DGEMM"},
		BeamECCAblation: true,
		Seed:            1701,
		BenchSeed:       1,
		Workers:         2,
	}
}

// inProcWorker is the reference worker: exactly what a phi-bench
// subprocess does (spec file in, RunPlan, partial out, JSONL progress on
// stderr), but in-process, so supervisor behaviour is testable without
// exec.
func inProcWorker(ctx context.Context, t Task, stderr io.Writer) error {
	spec, err := fleet.ReadSpecFile(t.SpecPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stderr)
	spec.Progress = func(done, total int) {
		enc.Encode(Event{Event: EventName, Shard: t.Shard, Count: t.Count, Done: done, Total: total})
	}
	res, err := spec.RunPlan(ctx, *t.Plan)
	if err != nil {
		return err
	}
	return res.WriteFile(t.OutPath)
}

// monoCache memoises the monolithic reference run per spec: most of the
// fan-out tests (and every conformance fixture) compare against the same
// monolithic artifact, and recomputing it per test dominates the race job's
// wall clock. Entries are read-only after insertion.
var monoCache sync.Map // spec JSON → monoEntry

type monoEntry struct {
	res  *fleet.SweepResult
	json []byte
}

func monoArtifact(t *testing.T, spec fleet.Sweep) (*fleet.SweepResult, []byte) {
	t.Helper()
	var key strings.Builder
	if err := spec.WriteSpec(&key); err != nil {
		t.Fatal(err)
	}
	if e, ok := monoCache.Load(key.String()); ok {
		ent := e.(monoEntry)
		return ent.res, ent.json
	}
	mono, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mono.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	monoCache.Store(key.String(), monoEntry{res: mono, json: buf.Bytes()})
	return mono, buf.Bytes()
}

func artifactBytes(t *testing.T, r *fleet.SweepResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunSweepFanOutBitIdentical is the acceptance test for the fan-out
// driver: for several shard counts, the supervised fan-out's merged result
// equals the monolithic Sweep.Run by struct comparison AND by artifact
// bytes, and the aggregated progress stream converges to all cells done.
func TestRunSweepFanOutBitIdentical(t *testing.T) {
	spec := testSweep()
	mono, monoJSON := monoArtifact(t, spec)
	counts := []int{1, 3, 5}
	if testing.Short() {
		counts = []int{3}
	}
	for _, count := range counts {
		var mu sync.Mutex
		var samples []Progress
		merged, err := Run(context.Background(), spec, Options{
			Shards:   count,
			Launcher: LauncherFunc(inProcWorker),
			Dir:      t.TempDir(),
			Progress: func(p Progress) {
				mu.Lock()
				samples = append(samples, p)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("K=%d: %v", count, err)
		}
		if !reflect.DeepEqual(mono, merged) {
			t.Fatalf("K=%d: merged fan-out differs from monolithic run", count)
		}
		if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
			t.Fatalf("K=%d: merged artifact not byte-identical to monolithic artifact", count)
		}
		cells := len(spec.Cells()) + len(spec.BeamCells())
		if len(samples) == 0 {
			t.Fatalf("K=%d: no progress samples", count)
		}
		last := samples[len(samples)-1]
		if last.Done != last.Total || last.Total != cells*count {
			t.Fatalf("K=%d: final progress sample %+v, want %d/%d", count, last, cells*count, cells*count)
		}
	}
}

// TestRunSweepRetriesKilledWorker is the kill-one-worker acceptance test:
// one shard's worker dies on its first attempt (leaving a corrupt partial
// behind, as a killed process would), the supervisor relaunches it, and
// the merge is still bit-identical to the monolithic run.
func TestRunSweepRetriesKilledWorker(t *testing.T) {
	spec := testSweep()
	mono, monoJSON := monoArtifact(t, spec)
	var mu sync.Mutex
	attempts := map[int]int{}
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		mu.Lock()
		attempts[task.Shard]++
		mu.Unlock()
		if task.Shard == 1 && task.Attempt == 0 {
			// Half-written output plus a diagnostic, then "die".
			os.WriteFile(task.OutPath, []byte(`{"spec"`), 0o644)
			fmt.Fprintln(stderr, "worker killed by signal")
			return errors.New("signal: killed")
		}
		return inProcWorker(ctx, task, stderr)
	})
	var logs []string
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Launcher: launcher, Dir: t.TempDir(),
		Retries: 2, Backoff: time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts[1] != 2 {
		t.Fatalf("killed shard launched %d times, want 2", attempts[1])
	}
	if attempts[0] != 1 || attempts[2] != 1 {
		t.Fatalf("healthy shards relaunched: %v", attempts)
	}
	if !reflect.DeepEqual(mono, merged) || !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("merge after retry differs from monolithic run")
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "retry") {
		t.Fatalf("supervisor log never mentioned the retry:\n%s", joined)
	}
}

// TestRunSweepTimeoutRelaunch: a worker that hangs is killed by the
// per-attempt timeout and relaunched; the fan-out still completes. Workers
// replay precomputed partials, so the tight timeout only ever trips on the
// deliberate hang — the test stays immune to machine speed and the race
// detector's slowdown.
func TestRunSweepTimeoutRelaunch(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	parts := make([]*fleet.SweepResult, 3)
	for k := range parts {
		var err error
		if parts[k], err = spec.RunShard(context.Background(), k, 3); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	attempts := map[int]int{}
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		mu.Lock()
		attempts[task.Shard]++
		mu.Unlock()
		if task.Shard == 2 && task.Attempt == 0 {
			<-ctx.Done() // hang until the supervisor's timeout kills us
			return ctx.Err()
		}
		return parts[task.Shard].WriteFile(task.OutPath)
	})
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Launcher: launcher, Dir: t.TempDir(),
		Timeout: 250 * time.Millisecond, Retries: 1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts[2] != 2 {
		t.Fatalf("hung shard launched %d times, want 2", attempts[2])
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("merge after timeout relaunch differs from monolithic run")
	}
}

// TestRunSweepPermanentFailureTails: when shards exhaust their retry
// budget, the error names every failed shard and carries each one's
// stderr tail — the whole point of supervised fan-out diagnostics.
func TestRunSweepPermanentFailureTails(t *testing.T) {
	spec := testSweep()
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		fmt.Fprintf(stderr, "boom-from-shard-%d\n", task.Shard)
		return fmt.Errorf("exit status 3")
	})
	_, err := Run(context.Background(), spec, Options{
		Shards: 3, Launcher: launcher, Dir: t.TempDir(),
		Retries: 1, Backoff: time.Millisecond,
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
}

// TestRunSweepValidatesPartial: a worker that exits 0 but leaves a
// truncated or mislabelled artifact, or the right plan of another sweep, is
// treated as a failed attempt and retried.
func TestRunSweepValidatesPartial(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	var mu sync.Mutex
	attempts := map[int]int{}
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		mu.Lock()
		n := attempts[task.Shard]
		attempts[task.Shard] = n + 1
		mu.Unlock()
		if task.Shard == 0 && n == 0 {
			// "Success" with a truncated artifact.
			return os.WriteFile(task.OutPath, []byte(`{"spec": {"n"`), 0o644)
		}
		if task.Shard == 1 && n == 0 {
			// "Success" with the right plan of a sweep on another seed.
			other := spec
			other.Seed++
			part, err := other.RunPlan(ctx, *task.Plan)
			if err != nil {
				return err
			}
			return part.WriteFile(task.OutPath)
		}
		return inProcWorker(ctx, task, stderr)
	})
	merged, err := Run(context.Background(), spec, Options{
		Shards: 2, Launcher: launcher, Dir: t.TempDir(),
		Retries: 1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts[0] != 2 || attempts[1] != 2 {
		t.Fatalf("corrupt-output and other-sweep shards launched %d and %d times, want 2 each", attempts[0], attempts[1])
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("merge after corrupt-output retry differs from monolithic run")
	}

	// With no retry budget the validation failure is permanent and telling.
	attempts = map[int]int{}
	_, err = Run(context.Background(), spec, Options{
		Shards: 2, Launcher: launcher, Dir: t.TempDir(), Retries: 0,
	})
	if err == nil || !strings.Contains(err.Error(), "partial is unusable") || !strings.Contains(err.Error(), "not of this job's sweep") {
		t.Fatalf("corrupt and other-sweep partials with no retries: %v, want an unusable-partial and an other-sweep error", err)
	}
}

// TestRunSweepCancel: cancelling the caller's context stops the fan-out
// and reports the cancellation, not a shard failure.
func TestRunSweepCancel(t *testing.T) {
	spec := testSweep()
	ctx, cancel := context.WithCancel(context.Background())
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		if task.Shard == 0 {
			cancel() // simulate an operator interrupt mid-run
		}
		<-ctx.Done()
		return ctx.Err()
	})
	_, err := Run(ctx, spec, Options{Shards: 3, Launcher: launcher, Dir: t.TempDir(), Retries: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fan-out returned %v, want context.Canceled", err)
	}
}

func TestRunSweepOptionValidation(t *testing.T) {
	spec := testSweep()
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Shards: 0, Launcher: LauncherFunc(inProcWorker), Dir: dir}); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if _, err := Run(context.Background(), spec, Options{Shards: 2, Dir: dir}); err == nil {
		t.Fatal("accepted a nil launcher")
	}
	if _, err := Run(context.Background(), spec, Options{Shards: 2, Launcher: LauncherFunc(inProcWorker)}); err == nil {
		t.Fatal("accepted an empty working directory")
	}
}

// TestRunSweepMaxConcurrent: a 1-slot pool still completes every shard and
// merges bit-identically — concurrency is an execution detail.
func TestRunSweepMaxConcurrent(t *testing.T) {
	spec := testSweep()
	_, monoJSON := monoArtifact(t, spec)
	var mu sync.Mutex
	inFlight, peak := 0, 0
	launcher := LauncherFunc(func(ctx context.Context, task Task, stderr io.Writer) error {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		return inProcWorker(ctx, task, stderr)
	})
	merged, err := Run(context.Background(), spec, Options{
		Shards: 3, Launcher: launcher, Dir: t.TempDir(), MaxConcurrent: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != 1 {
		t.Fatalf("1-slot pool reached %d shards in flight", peak)
	}
	if !bytes.Equal(monoJSON, artifactBytes(t, merged)) {
		t.Fatal("bounded-pool merge differs from monolithic run")
	}
}

func TestPlanLayout(t *testing.T) {
	dir := t.TempDir()
	spec := testSweep()
	tasks, parts, err := layout(dir, spec, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 || len(parts) != 3 {
		t.Fatalf("planned %d tasks and %d partials, want 3 of each", len(tasks), len(parts))
	}
	for k, task := range tasks {
		if task.Shard != k || task.Count != 3 || task.Attempt != 0 {
			t.Fatalf("task %d mislabelled: %+v", k, task)
		}
		want, err := spec.Plan(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if task.Plan == nil || *task.Plan != want {
			t.Fatalf("task %d plan %v, want the balanced %+v", k, task.Plan, want)
		}
		if parts[k] != nil {
			t.Fatalf("cold merge slot %d is answered before any worker ran", k)
		}
		if task.OutPath != filepath.Join(dir, fmt.Sprintf("sweep-shard-%d-of-3.json", k+1)) {
			t.Fatalf("task %d partial path %q off-convention", k, task.OutPath)
		}
		if task.ShardArg() != fmt.Sprintf("%d/3", k+1) {
			t.Fatalf("task %d shard arg %q", k, task.ShardArg())
		}
	}
	back, err := fleet.ReadSpecFile(tasks[0].SpecPath)
	if err != nil {
		t.Fatal(err)
	}
	spec.Progress = nil
	if !reflect.DeepEqual(spec, back) {
		t.Fatal("planned spec file does not round-trip the sweep spec")
	}
	if _, _, err := layout(dir, spec, nil, 0); err == nil {
		t.Fatal("accepted a 0-shard plan")
	}

	// A prefix layout: the cached slice is shard 0's partial, held as a
	// value and never written, and every task — the fresh shards only —
	// carries its plan too.
	cachedSpec := spec
	cachedSpec.N /= 2
	cached, _ := monoArtifact(t, cachedSpec)
	prefixDir := t.TempDir()
	tasks, parts, err = layout(prefixDir, spec, cached, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || len(parts) != 3 {
		t.Fatalf("prefix layout planned %d tasks and %d partials, want 2 and 3", len(tasks), len(parts))
	}
	for i, task := range tasks {
		if task.Plan == nil || task.Shard != i+1 || task.Plan.Index != task.Shard || task.Plan.Count != 3 {
			t.Fatalf("prefix task %d: %+v with plan %v", i, task, task.Plan)
		}
	}
	if p := parts[0]; p == nil || p.Shard.Index != 0 || p.Shard.Injection.N != cachedSpec.N || parts[1] != nil || parts[2] != nil {
		t.Fatalf("prefix merge set %v, want the cached prefix in slot 0 alone", parts)
	}
	if _, err := os.Stat(PartialPath(prefixDir, 0, 3)); !os.IsNotExist(err) {
		t.Fatalf("the cached prefix was written to disk (stat: %v)", err)
	}
}
