package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/fault"
)

func TestShardPlanPartition(t *testing.T) {
	s := beamSweep() // N=20 (10 short), BeamRuns=150 (50 short)
	for _, count := range []int{1, 2, 3, 5, 7, 64} {
		injNext, beamNext := 0, 0
		for k := 0; k < count; k++ {
			plan, err := s.Plan(k, count)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Index != k || plan.Count != count {
				t.Fatalf("plan %d/%d mislabelled: %+v", k, count, plan)
			}
			if plan.Injection.Offset != injNext || plan.Beam.Offset != beamNext {
				t.Fatalf("shard %d/%d ranges not contiguous: %+v (want offsets %d, %d)",
					k, count, plan, injNext, beamNext)
			}
			ns := s.normalized()
			if lo, hi := ns.N/count, (ns.N+count-1)/count; plan.Injection.N < lo || plan.Injection.N > hi {
				t.Fatalf("shard %d/%d injection range %+v unbalanced", k, count, plan.Injection)
			}
			injNext += plan.Injection.N
			beamNext += plan.Beam.N
		}
		ns := s.normalized()
		if injNext != ns.N || beamNext != ns.BeamRuns {
			t.Fatalf("%d-way plan covers %d/%d trials, want %d/%d", count, injNext, beamNext, ns.N, ns.BeamRuns)
		}
	}
	for _, bad := range [][2]int{{-1, 3}, {3, 3}, {0, 0}} {
		if _, err := s.Plan(bad[0], bad[1]); err == nil {
			t.Fatalf("accepted shard %d/%d", bad[0], bad[1])
		}
	}
}

// TestSweepTrials: a plan's cell-weighted trials weigh each range by its
// cell kind's count, the whole sweep's are every cell's trials, and the K
// balanced plans' trials sum to the whole.
func TestSweepTrials(t *testing.T) {
	s := beamSweep()
	inj, beams := len(s.Cells()), len(s.BeamCells())
	if inj == 0 || beams == 0 {
		t.Fatalf("fixture has %d injection and %d beam cells, want both kinds", inj, beams)
	}
	whole := s.Trials(s.Whole())
	if want := inj*s.N + beams*s.BeamRuns; whole != want {
		t.Fatalf("whole sweep counts %d trials, want %d", whole, want)
	}
	for _, count := range []int{1, 3, 7} {
		sum := 0
		for k := 0; k < count; k++ {
			plan, err := s.Plan(k, count)
			if err != nil {
				t.Fatal(err)
			}
			sum += s.Trials(plan)
		}
		if sum != whole {
			t.Fatalf("%d plans count %d trials, the whole sweep %d", count, sum, whole)
		}
	}
}

// TestSweepShardMergeBitIdentical is the acceptance test for the shardable
// sweep seam: for K in {1, 2, 3, 5} (all uneven splits of the fixture's
// trial counts), merging the K RunShard partials of a mixed sweep — both
// cell kinds — equals the monolithic Sweep.Run by full struct comparison
// AND by artifact bytes.
func TestSweepShardMergeBitIdentical(t *testing.T) {
	s := beamSweep()
	mono, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var monoJSON bytes.Buffer
	if err := mono.WriteJSON(&monoJSON); err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 2, 3, 5}
	if testing.Short() {
		// The race job runs this fixture under ~100x instrumentation; K=3
		// alone still covers uneven splits of both cell kinds there.
		counts = []int{1, 3}
	}
	for _, count := range counts {
		parts := make([]*SweepResult, count)
		for k := range parts {
			if parts[k], err = s.RunShard(context.Background(), k, count); err != nil {
				t.Fatal(err)
			}
			if parts[k].Shard == nil || parts[k].Shard.Index != k || parts[k].Shard.Count != count {
				t.Fatalf("partial %d/%d tagged %+v", k+1, count, parts[k].Shard)
			}
		}
		// Partials merge in any order; hand them over reversed.
		rev := make([]*SweepResult, count)
		for k := range parts {
			rev[count-1-k] = parts[k]
		}
		merged, err := MergeSweepResults(rev...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mono, merged) {
			t.Fatalf("K=%d: merged sweep differs from monolithic run", count)
		}
		var mergedJSON bytes.Buffer
		if err := merged.WriteJSON(&mergedJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(monoJSON.Bytes(), mergedJSON.Bytes()) {
			t.Fatalf("K=%d: merged artifact not byte-identical to monolithic artifact", count)
		}
	}
}

// TestSweepShardMoreShardsThanTrials: K larger than a cell's trial count
// leaves some shards with empty ranges (nil cell results); the merge must
// still reconstruct the monolithic sweep exactly.
func TestSweepShardMoreShardsThanTrials(t *testing.T) {
	s := Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          3,
		Seed:       11,
		BenchSeed:  1,
		Workers:    2,
	}
	mono, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const count = 5
	parts := make([]*SweepResult, count)
	empties := 0
	for k := range parts {
		if parts[k], err = s.RunShard(context.Background(), k, count); err != nil {
			t.Fatal(err)
		}
		if parts[k].Cells[0].Result == nil {
			empties++
		}
	}
	if empties != count-3 {
		t.Fatalf("%d empty shards, want %d", empties, count-3)
	}
	merged, err := MergeSweepResults(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mono, merged) {
		t.Fatal("merged sweep differs from monolithic run")
	}
}

func TestMergeSweepResultsValidation(t *testing.T) {
	s := Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          6,
		Seed:       3,
		BenchSeed:  1,
		Workers:    2,
	}
	shard := func(sw Sweep, k, count int) *SweepResult {
		t.Helper()
		p, err := sw.RunShard(context.Background(), k, count)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := shard(s, 0, 2), shard(s, 1, 2)
	if _, err := MergeSweepResults(); err == nil {
		t.Fatal("accepted empty part list")
	}
	if _, err := MergeSweepResults(a); err == nil {
		t.Fatal("accepted missing shard")
	}
	if _, err := MergeSweepResults(a, a); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("duplicated shard: %v, want a clear duplicate-index error", err)
	}
	// A duplicate hiding in a full-length part list (the repeated-path
	// phi-merge case) must also name the duplication, not the coverage.
	if _, err := MergeSweepResults(a, b, b); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("duplicated shard among %d parts: %v, want a clear duplicate-index error", 3, err)
	}
	mono, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSweepResults(mono, b); err == nil {
		t.Fatal("accepted an untagged (monolithic) part")
	}
	other := s
	other.Seed = 4
	if _, err := MergeSweepResults(a, shard(other, 1, 2)); err == nil {
		t.Fatal("accepted shards of different seeds")
	}
	other = s
	other.N = 8
	if _, err := MergeSweepResults(a, shard(other, 1, 2)); err == nil {
		t.Fatal("accepted shards of different trial counts")
	}
	if _, err := MergeSweepResults(a, shard(s, 1, 3)); err == nil {
		t.Fatal("accepted shards of different shard counts")
	}
	// The happy path still holds after all the rejected combinations.
	merged, err := MergeSweepResults(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mono, merged) {
		t.Fatal("merged sweep differs from monolithic run")
	}
	// Pool size is an execution detail, not part of result identity: a
	// shard run on a machine with a different Workers setting must still
	// merge, and the cell results must be unchanged.
	other = s
	other.Workers = 7
	hetero, err := MergeSweepResults(a, shard(other, 1, 2))
	if err != nil {
		t.Fatalf("shards with different pool sizes refused to merge: %v", err)
	}
	if !reflect.DeepEqual(mono.Cells, hetero.Cells) {
		t.Fatal("heterogeneous-pool merge changed cell results")
	}
}

// TestMergeFilesAndReadFileHardening drives the artifact path end to end:
// shard partials written to disk fold back bit-identically through
// MergeFiles, while ReadFile — the phi-report entry point — rejects
// missing, truncated and unmerged shard-partial files with telling errors.
func TestMergeFilesAndReadFileHardening(t *testing.T) {
	dir := t.TempDir()
	s := Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single, fault.Zero},
		N:          8,
		Seed:       21,
		BenchSeed:  1,
		Workers:    2,
	}
	mono, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 3)
	for k := range paths {
		part, err := s.RunShard(context.Background(), k, 3)
		if err != nil {
			t.Fatal(err)
		}
		paths[k] = filepath.Join(dir, "shard-"+string(rune('a'+k))+".json")
		if err := part.WriteFile(paths[k]); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mono, merged) {
		t.Fatal("MergeFiles result differs from monolithic run")
	}

	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("ReadFile accepted a missing file")
	}
	if _, err := ReadFile(paths[0]); err == nil || !strings.Contains(err.Error(), "phi-merge") {
		t.Fatalf("ReadFile on a shard partial: %v, want an unmerged-shard error", err)
	}
	// ReadShardFile is the exact inverse: partials read back, complete
	// artifacts are rejected.
	if p, err := ReadShardFile(paths[0]); err != nil || p.Shard == nil || p.Shard.Index != 0 {
		t.Fatalf("ReadShardFile on a partial: %+v, %v", p, err)
	}
	full, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.json")
	if err := os.WriteFile(trunc, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(trunc); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("ReadFile on a truncated file: %v, want a truncation error", err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(empty); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("ReadFile on an empty file: %v, want a truncation error", err)
	}
	if _, err := MergeFiles(paths[0], trunc, paths[2]); err == nil {
		t.Fatal("MergeFiles accepted a truncated partial")
	}
	// A complete artifact still reads back.
	monoPath := filepath.Join(dir, "sweep.json")
	if err := mono.WriteFile(monoPath); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(monoPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mono, back) {
		t.Fatal("complete artifact changed across ReadFile")
	}
	if _, err := ReadShardFile(monoPath); err == nil || !strings.Contains(err.Error(), "not a shard partial") {
		t.Fatalf("ReadShardFile on a complete artifact: %v, want a rejection", err)
	}
}
