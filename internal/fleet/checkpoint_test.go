package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"phirel/internal/beam"
	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
)

// ckptSweep is deliberately tiny: the checkpoint property test executes
// hundreds of kill/resume cycles against it, so per-trial cost dominates
// the suite's wall-clock.
func ckptSweep() Sweep {
	return Sweep{
		Benchmarks:     []string{"DGEMM"},
		Models:         []fault.Model{fault.Single},
		N:              4,
		BeamRuns:       4,
		BeamBenchmarks: []string{"DGEMM"},
		Seed:           99,
		BenchSeed:      1,
		Workers:        2,
	}
}

func mustPlan(t *testing.T, s Sweep, k, count int) ShardPlan {
	t.Helper()
	p, err := s.Plan(k, count)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustRunPlan(t *testing.T, s Sweep, plan ShardPlan) *SweepResult {
	t.Helper()
	r, err := s.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func artifactJSON(t *testing.T, r *SweepResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	s := ckptSweep()
	part := mustRunPlan(t, s, mustPlan(t, s, 0, 2))
	path := filepath.Join(dir, "ck.json")
	if err := WriteAtomic(path, part.WriteJSON); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(path + ".tmp-*"); len(tmps) != 0 {
		t.Fatalf("temp file left behind: %v", tmps)
	}
	back, err := ReadShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part, back) {
		t.Fatal("checkpoint changed across WriteFileAtomic/ReadShardFile")
	}
	if err := WriteAtomic(filepath.Join(dir, "no-such-dir", "ck.json"), part.WriteJSON); err == nil {
		t.Fatal("atomic write into a missing directory succeeded")
	}
	// A write that fails halfway publishes nothing and leaves no temp file.
	failed := filepath.Join(dir, "failed.json")
	boom := errors.New("boom")
	err = WriteAtomic(failed, func(w io.Writer) error {
		w.Write([]byte("{"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the write's error", err)
	}
	if tmps, _ := filepath.Glob(failed + "*"); len(tmps) != 0 {
		t.Fatalf("a failed write left %v", tmps)
	}
}

func TestResumePlanAlgebra(t *testing.T) {
	plan := ShardPlan{Index: 1, Count: 3, Injection: TrialRange{Offset: 4, N: 6}, Beam: TrialRange{Offset: 10, N: 8}}
	// An empty checkpoint leaves the full plan to run.
	rest, err := resumePlan(plan, ShardPlan{Index: 1, Count: 3})
	if err != nil || rest != plan {
		t.Fatalf("empty checkpoint: %+v, %v", rest, err)
	}
	// A proper prefix leaves exactly the suffix.
	done := ShardPlan{Index: 1, Count: 3, Injection: TrialRange{Offset: 4, N: 2}, Beam: TrialRange{Offset: 10, N: 5}}
	rest, err = resumePlan(plan, done)
	if err != nil {
		t.Fatal(err)
	}
	want := ShardPlan{Index: 1, Count: 3, Injection: TrialRange{Offset: 6, N: 4}, Beam: TrialRange{Offset: 15, N: 3}}
	if rest != want {
		t.Fatalf("remainder %+v, want %+v", rest, want)
	}
	// A complete checkpoint leaves empty ranges at the plan's ends.
	rest, err = resumePlan(plan, plan)
	if err != nil || !rest.Injection.Empty() || !rest.Beam.Empty() {
		t.Fatalf("full checkpoint remainder %+v, %v", rest, err)
	}
	if rest.Injection.Offset != plan.Injection.End() || rest.Beam.Offset != plan.Beam.End() {
		t.Fatalf("full checkpoint remainder not positioned at the plan end: %+v", rest)
	}
	for name, done := range map[string]ShardPlan{
		"wrong shard":      {Index: 0, Count: 3, Injection: TrialRange{Offset: 4, N: 2}},
		"wrong count":      {Index: 1, Count: 4, Injection: TrialRange{Offset: 4, N: 2}},
		"offset mismatch":  {Index: 1, Count: 3, Injection: TrialRange{Offset: 5, N: 2}},
		"past the end":     {Index: 1, Count: 3, Injection: TrialRange{Offset: 4, N: 7}},
		"negative length":  {Index: 1, Count: 3, Injection: TrialRange{Offset: 4, N: -1}},
		"beam non-prefix":  {Index: 1, Count: 3, Beam: TrialRange{Offset: 12, N: 2}},
		"beam overrunning": {Index: 1, Count: 3, Beam: TrialRange{Offset: 10, N: 9}},
	} {
		if _, err := resumePlan(plan, done); err == nil {
			t.Fatalf("%s: accepted checkpoint %+v", name, done)
		}
	}
}

func TestMergeShardPartialsFoldsAndValidates(t *testing.T) {
	s := ckptSweep()
	plan := mustPlan(t, s, 0, 1)
	mono := mustRunPlan(t, s, plan)
	monoJSON := artifactJSON(t, mono)

	cut := func(injAt, beamAt int) (ShardPlan, ShardPlan) {
		pre := ShardPlan{Index: plan.Index, Count: plan.Count,
			Injection: TrialRange{Offset: plan.Injection.Offset, N: injAt},
			Beam:      TrialRange{Offset: plan.Beam.Offset, N: beamAt}}
		rest, err := resumePlan(plan, pre)
		if err != nil {
			t.Fatal(err)
		}
		return pre, rest
	}
	pre, rest := cut(2, 3)
	a, b := mustRunPlan(t, s, pre), mustRunPlan(t, s, rest)

	// Folding the two range partials — in either order — reconstructs the
	// uninterrupted shard partial exactly, struct and bytes.
	for _, parts := range [][]*SweepResult{{a, b}, {b, a}} {
		merged, err := MergeShardPartials(plan, parts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mono, merged) {
			t.Fatal("folded partials differ from the uninterrupted run")
		}
		if !bytes.Equal(monoJSON, artifactJSON(t, merged)) {
			t.Fatal("folded artifact not byte-identical to the uninterrupted run")
		}
	}

	// A dimension can be cut at zero: the prefix then has an empty range and
	// the remainder carries the whole dimension.
	pre0, rest0 := cut(0, 2)
	merged, err := MergeShardPartials(plan, mustRunPlan(t, s, pre0), mustRunPlan(t, s, rest0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, merged)) {
		t.Fatal("empty-prefix fold not byte-identical to the uninterrupted run")
	}

	if _, err := MergeShardPartials(plan); err == nil {
		t.Fatal("accepted an empty part list")
	}
	if _, err := MergeShardPartials(plan, a, nil); err == nil {
		t.Fatal("accepted a nil part")
	}
	if _, err := MergeShardPartials(plan, a); err == nil {
		t.Fatal("accepted parts that leave a gap at the plan's end")
	}
	if _, err := MergeShardPartials(plan, a, a); err == nil {
		t.Fatal("accepted overlapping parts")
	}
	full := mustRunPlan(t, s, plan)
	full.Shard = nil
	if _, err := MergeShardPartials(plan, full, b); err == nil {
		t.Fatal("accepted a monolithic (untagged) part")
	}
	wrong := mustRunPlan(t, s, mustPlan(t, s, 0, 2))
	if _, err := MergeShardPartials(plan, wrong, b); err == nil {
		t.Fatal("accepted a part from a different shard layout")
	}
	other := s
	other.Seed = 100
	otherPre := mustRunPlan(t, other, pre)
	if _, err := MergeShardPartials(plan, otherPre, b); err == nil {
		t.Fatal("accepted a part from a different sweep spec")
	}
}

func TestLoadCheckpointValidatesAndDegrades(t *testing.T) {
	dir := t.TempDir()
	s := ckptSweep()
	plan := mustPlan(t, s, 0, 1)
	pre := ShardPlan{Index: 0, Count: 1, Injection: TrialRange{N: 2}, Beam: TrialRange{N: 2}}
	part := mustRunPlan(t, s, pre)
	path := filepath.Join(dir, "ck.json")
	if err := WriteAtomic(path, part.WriteJSON); err != nil {
		t.Fatal(err)
	}

	ck, rest, err := LoadCheckpoint(path, s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if *ck.Shard != pre {
		t.Fatalf("checkpoint tagged %+v, want %+v", ck.Shard, pre)
	}
	if rest.Injection.N != 2 || rest.Beam.N != 2 || rest.Injection.Offset != 2 || rest.Beam.Offset != 2 {
		t.Fatalf("remainder %+v", rest)
	}

	check := func(name string, corrupt func(dst string)) {
		t.Helper()
		dst := filepath.Join(dir, name+".json")
		corrupt(dst)
		if _, _, err := LoadCheckpoint(dst, s, plan); err == nil {
			t.Fatalf("%s: checkpoint accepted", name)
		}
	}
	check("missing", func(string) {})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check("truncated", func(dst string) { os.WriteFile(dst, raw[:len(raw)/3], 0o644) })
	check("garbage", func(dst string) { os.WriteFile(dst, []byte("{not json"), 0o644) })
	check("stale-spec", func(dst string) {
		other := s
		other.Seed = 1234
		WriteAtomic(dst, mustRunPlan(t, other, pre).WriteJSON)
	})
	check("not-a-prefix", func(dst string) {
		mid := ShardPlan{Index: 0, Count: 1, Injection: TrialRange{Offset: 1, N: 2}, Beam: TrialRange{N: 2}}
		WriteAtomic(dst, mustRunPlan(t, s, mid).WriteJSON)
	})
	check("wrong-shard", func(dst string) {
		WriteAtomic(dst, mustRunPlan(t, s, mustPlan(t, s, 1, 2)).WriteJSON)
	})
	check("result-hole", func(dst string) {
		hole := mustRunPlan(t, s, pre)
		hole.Cells[0].Result = nil
		WriteAtomic(dst, hole.WriteJSON)
	})
}

// TestRunPlanCheckpointedEquivalence: chunked, checkpointed execution is
// pure execution detail — the result is bit-identical to the uninterrupted
// RunPlan, every checkpoint lands as a loadable prefix, and progress
// reports stay monotone across chunk boundaries.
func TestRunPlanCheckpointedEquivalence(t *testing.T) {
	dir := t.TempDir()
	s := ckptSweep()
	plan := mustPlan(t, s, 0, 1)
	mono := mustRunPlan(t, s, plan)
	monoJSON := artifactJSON(t, mono)

	var lastDone int
	s2 := s
	s2.Progress = func(done, total int) {
		if done < lastDone {
			t.Errorf("progress regressed: %d after %d", done, lastDone)
		}
		lastDone = done
	}
	ckPath := filepath.Join(dir, "ck.json")
	var covered []ShardPlan
	res, err := s2.RunPlanCheckpointed(context.Background(), plan, Checkpoint{
		Out:   ckPath,
		Every: 1,
		OnCheckpoint: func(c ShardPlan) {
			covered = append(covered, c)
			// Every published checkpoint must load back as a valid prefix of
			// the plan at the moment it lands.
			if _, _, err := LoadCheckpoint(ckPath, s, plan); err != nil {
				t.Errorf("mid-run checkpoint unusable: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The result records no hook, so it must match the uninterrupted run
	// exactly.
	if !reflect.DeepEqual(mono, res) {
		t.Fatal("checkpointed run differs from uninterrupted run")
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
		t.Fatal("checkpointed artifact not byte-identical")
	}
	if len(covered) != 3 { // span 4, cadence 1 → 4 chunks, a checkpoint after each but the last
		t.Fatalf("%d checkpoints, want 3: %+v", len(covered), covered)
	}
	for i := 1; i < len(covered); i++ {
		if covered[i].Injection.N < covered[i-1].Injection.N || covered[i].Beam.N < covered[i-1].Beam.N {
			t.Fatalf("covered prefix shrank: %+v after %+v", covered[i], covered[i-1])
		}
	}
}

// TestRunPlanCheckpointedObserved: a sweep with both observers set runs
// its plan in checkpoint chunks, folds them, encodes the bytes of an
// unhooked RunPlan and hands its observers exactly the plan's trials, each
// once per cell. A hook recorded in a chunk's spec would fail the fold.
func TestRunPlanCheckpointedObserved(t *testing.T) {
	s := ckptSweep()
	plan := mustPlan(t, s, 1, 2)
	monoJSON := artifactJSON(t, mustRunPlan(t, s, plan))

	var mu sync.Mutex
	seen := map[string]int{} // "kind/benchmark/seq" → records
	hooked := s
	hooked.ObserveInjection = func(rec core.InjectionRecord) {
		mu.Lock()
		seen[fmt.Sprintf("inj/%s/%d", rec.Benchmark, rec.Seq)]++
		mu.Unlock()
	}
	hooked.ObserveBeam = func(rec beam.Record) {
		mu.Lock()
		seen[fmt.Sprintf("beam/%s/%d", rec.Benchmark, rec.Seq)]++
		mu.Unlock()
	}
	res, err := hooked.RunPlanCheckpointed(context.Background(), plan, Checkpoint{
		Out:   filepath.Join(t.TempDir(), "ck.json"),
		Every: 1,
	})
	if err != nil {
		t.Fatalf("observed chunked run: %v", err)
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
		t.Fatal("observed chunked artifact differs from the unhooked RunPlan's")
	}
	want := map[string]int{}
	for _, c := range s.Cells() {
		for i := plan.Injection.Offset; i < plan.Injection.End(); i++ {
			want[fmt.Sprintf("inj/%s/%d", c.Benchmark, i)]++
		}
	}
	for _, c := range s.BeamCells() {
		for i := plan.Beam.Offset; i < plan.Beam.End(); i++ {
			want[fmt.Sprintf("beam/%s/%d", c.Benchmark, i)]++
		}
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("observers saw %v, want the plan's trials %v", seen, want)
	}
}

// TestRunPlanCheckpointedKillResume is the single-shard preemption story as
// the supervisor tells it: a worker dies right after a checkpoint lands, the
// checkpoint is loaded once and banked, a relaunch runs only the remainder
// as a plan of its own, and bank and remainder fold to the bytes of never
// having died. A checkpoint that is garbage does not load, and the relaunch
// recomputes the full plan with the same final bytes.
func TestRunPlanCheckpointedKillResume(t *testing.T) {
	dir := t.TempDir()
	s := ckptSweep()
	plan := mustPlan(t, s, 0, 1)
	monoJSON := artifactJSON(t, mustRunPlan(t, s, plan))
	ckPath := filepath.Join(dir, "ck.json")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := s.RunPlanCheckpointed(ctx, plan, Checkpoint{
		Out:   ckPath,
		Every: 2,
		OnCheckpoint: func(ShardPlan) {
			cancel() // die immediately after the first checkpoint lands
		},
	})
	if err == nil {
		t.Fatal("killed run reported success")
	}
	ck, rest, err := LoadCheckpoint(ckPath, s, plan)
	if err != nil {
		t.Fatalf("post-kill checkpoint unusable: %v", err)
	}
	salvaged := ck.Shard.Injection.N + ck.Shard.Beam.N
	remaining := rest.Injection.N + rest.Beam.N
	if salvaged == 0 || remaining == 0 {
		t.Fatalf("kill point not mid-plan: %d salvaged, %d remaining", salvaged, remaining)
	}

	// The relaunch runs the remainder alone, checkpointing its own prefix
	// (a plan that starts mid-shard), and knows nothing of the bank.
	var restCovered []ShardPlan
	tail, err := s.RunPlanCheckpointed(context.Background(), rest, Checkpoint{
		Out: filepath.Join(dir, "rest.ckpt"), Every: 2,
		OnCheckpoint: func(c ShardPlan) { restCovered = append(restCovered, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if *tail.Shard != rest {
		t.Fatalf("relaunch ran %+v, want the remainder %+v", *tail.Shard, rest)
	}
	for _, c := range restCovered {
		if c.Injection.Offset != rest.Injection.Offset || c.Beam.Offset != rest.Beam.Offset {
			t.Fatalf("remainder checkpoint %+v is not a prefix of the remainder %+v", c, rest)
		}
	}
	res, err := MergeShardPartials(plan, ck, tail)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
		t.Fatal("bank + remainder not byte-identical to the unkilled run")
	}

	// Garbage at the checkpoint path does not load; the full plan reruns.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(bad, s, plan); err == nil {
		t.Fatal("garbage checkpoint loaded")
	}
	res, err = s.RunPlanCheckpointed(context.Background(), plan, Checkpoint{Out: bad, Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
		t.Fatal("full rerun not byte-identical to the unkilled run")
	}
}

// TestCheckpointResumeProperty drives the elastic seam through hundreds of
// random (plan, checkpoint-cadence, kill-point) triples. For every triple
// the chunk tiling is checked gap/overlap-free and trial-conserving by pure
// range algebra, and the supervisor's kill-at-checkpoint → bank → remainder
// → fold cycle is executed for real: the folded result must be DeepEqual
// and byte-equal to the unkilled run of the same plan.
func TestCheckpointResumeProperty(t *testing.T) {
	iters := 500
	if testing.Short() {
		iters = 120
	}
	dir := t.TempDir()
	s := ckptSweep()
	rng := rand.New(rand.NewSource(1701))

	// The unkilled references, one per distinct plan (10 plans for counts
	// 1..4), are computed once and compared against by bytes.
	type ref struct {
		res  *SweepResult
		data []byte
	}
	refs := map[ShardPlan]*ref{}
	reference := func(plan ShardPlan) *ref {
		if r, ok := refs[plan]; ok {
			return r
		}
		res := mustRunPlan(t, s, plan)
		r := &ref{res: res, data: artifactJSON(t, res)}
		refs[plan] = r
		return r
	}

	ckPath := filepath.Join(dir, "ck.json")
	for it := 0; it < iters; it++ {
		count := 1 + rng.Intn(4)
		plan := mustPlan(t, s, rng.Intn(count), count)
		every := 1 + rng.Intn(5)

		// Algebra: replay the chunk layout RunPlanCheckpointed uses and
		// assert the tiling invariants hold for this (plan, cadence) pair.
		span := plan.Injection.N
		if plan.Beam.N > span {
			span = plan.Beam.N
		}
		chunks := 1
		if span > every {
			chunks = (span + every - 1) / every
		}
		injNext, beamNext := plan.Injection.Offset, plan.Beam.Offset
		injTrials, beamTrials := 0, 0
		for c := 0; c < chunks; c++ {
			inj := plan.Injection.Split(c, chunks)
			beam := plan.Beam.Split(c, chunks)
			if !inj.Empty() {
				if inj.Offset != injNext {
					t.Fatalf("iter %d: injection chunk %d leaves a gap or overlap: %+v, next=%d", it, c, inj, injNext)
				}
				injNext = inj.End()
			}
			if !beam.Empty() {
				if beam.Offset != beamNext {
					t.Fatalf("iter %d: beam chunk %d leaves a gap or overlap: %+v, next=%d", it, c, beam, beamNext)
				}
				beamNext = beam.End()
			}
			injTrials += inj.N
			beamTrials += beam.N
			// Every chunk boundary is a resumable prefix, and prefix plus
			// remainder always conserve the plan's trials.
			covered := ShardPlan{Index: plan.Index, Count: plan.Count,
				Injection: TrialRange{Offset: plan.Injection.Offset, N: inj.End() - plan.Injection.Offset},
				Beam:      TrialRange{Offset: plan.Beam.Offset, N: beam.End() - plan.Beam.Offset}}
			rest, err := resumePlan(plan, covered)
			if err != nil {
				t.Fatalf("iter %d: chunk %d boundary not resumable: %v", it, c, err)
			}
			if covered.Injection.N+rest.Injection.N != plan.Injection.N ||
				covered.Beam.N+rest.Beam.N != plan.Beam.N {
				t.Fatalf("iter %d: chunk %d loses trials: covered %+v rest %+v", it, c, covered, rest)
			}
		}
		if injNext != plan.Injection.End() || beamNext != plan.Beam.End() ||
			injTrials != plan.Injection.N || beamTrials != plan.Beam.N {
			t.Fatalf("iter %d: chunks do not tile the plan: cover to %d/%d, sum %d/%d, plan %+v",
				it, injNext, beamNext, injTrials, beamTrials, plan)
		}

		// Execution: kill after a random checkpoint, resume, compare.
		want := reference(plan)
		os.Remove(ckPath)
		if chunks > 1 {
			killAfter := 1 + rng.Intn(chunks-1)
			seen := 0
			ctx, cancel := context.WithCancel(context.Background())
			_, err := s.RunPlanCheckpointed(ctx, plan, Checkpoint{
				Out:   ckPath,
				Every: every,
				OnCheckpoint: func(ShardPlan) {
					seen++
					if seen == killAfter {
						cancel()
					}
				},
			})
			cancel()
			if err == nil {
				t.Fatalf("iter %d: killed run reported success", it)
			}
		}
		var res *SweepResult
		bank, rest, err := LoadCheckpoint(ckPath, s, plan)
		if err != nil {
			// Nothing banked (one chunk, no checkpoint): the full plan.
			bank, rest = nil, plan
		}
		tail, err := s.RunPlanCheckpointed(context.Background(), rest, Checkpoint{Out: ckPath, Every: every})
		if err != nil {
			t.Fatalf("iter %d: remainder failed: %v", it, err)
		}
		if res = tail; bank != nil {
			if res, err = MergeShardPartials(plan, bank, tail); err != nil {
				t.Fatalf("iter %d: bank + remainder fold: %v", it, err)
			}
		}
		if !reflect.DeepEqual(want.res, res) {
			t.Fatalf("iter %d: resumed result differs from the unkilled run (plan %+v, every %d)", it, plan, every)
		}
		if !bytes.Equal(want.data, artifactJSON(t, res)) {
			t.Fatalf("iter %d: resumed artifact not byte-identical (plan %+v, every %d)", it, plan, every)
		}
	}
}

// TestRunPlanCheckpointedWriteFailure: a checkpoint that cannot be written
// costs resumability, not correctness. Under a path whose parent is a
// regular file the temp file cannot be created; at a path that is a
// directory the temp file lands and the rename fails. Either way the run
// completes with RunPlan's bytes, each failure is logged, no checkpoint is
// announced and no temp file is left behind.
func TestRunPlanCheckpointedWriteFailure(t *testing.T) {
	s := ckptSweep()
	plan := mustPlan(t, s, 0, 1)
	monoJSON := artifactJSON(t, mustRunPlan(t, s, plan))

	for name, block := range map[string]func(dir string) (ckPath string){
		"parent is a file": func(dir string) string {
			blocker := filepath.Join(dir, "blocker")
			if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			return filepath.Join(blocker, "ck.json")
		},
		"path is a directory": func(dir string) string {
			blocker := filepath.Join(dir, "blocker")
			if err := os.Mkdir(blocker, 0o755); err != nil {
				t.Fatal(err)
			}
			return blocker
		},
	} {
		dir := t.TempDir()
		ckPath := block(dir)
		var failures, announced int
		res, err := s.RunPlanCheckpointed(context.Background(), plan, Checkpoint{
			Out:   ckPath,
			Every: 1,
			Logf: func(format string, _ ...any) {
				if strings.Contains(format, "checkpoint write failed") {
					failures++
				}
			},
			OnCheckpoint: func(ShardPlan) { announced++ },
		})
		if err != nil {
			t.Fatalf("%s: a failing checkpoint write failed the run: %v", name, err)
		}
		if !bytes.Equal(monoJSON, artifactJSON(t, res)) {
			t.Fatalf("%s: artifact differs from RunPlan's after failed checkpoint writes", name)
		}
		if failures != 3 { // span 4, cadence 1 → 4 chunks, a write after each but the last
			t.Fatalf("%s: %d failed writes logged, want 3", name, failures)
		}
		if announced != 0 {
			t.Fatalf("%s: OnCheckpoint called %d times for checkpoints that never landed", name, announced)
		}
		if tmps, _ := filepath.Glob(ckPath + ".tmp-*"); len(tmps) != 0 {
			t.Fatalf("%s: temp file left behind: %v", name, tmps)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "blocker" {
			t.Fatalf("%s: the failed writes left something behind: %v", name, entries)
		}
	}
}
