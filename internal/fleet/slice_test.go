package fleet

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/fault"
)

// TestPlanWithPrefixPartition: for any covered prefix and fresh count, the
// fresh+1 plans tile the request's trial space exactly — plan 0 is the
// cached prefix, plans 1..fresh are contiguous balanced slices of the rest.
func TestPlanWithPrefixPartition(t *testing.T) {
	s := beamSweep()
	ns := s.normalized()
	rng := rand.New(rand.NewSource(5))
	check := func(injCov, beamCov, fresh int) {
		t.Helper()
		plans, err := s.PlanWithPrefix(injCov, beamCov, fresh)
		if err != nil {
			t.Fatalf("PlanWithPrefix(%d, %d, %d): %v", injCov, beamCov, fresh, err)
		}
		if len(plans) != fresh+1 {
			t.Fatalf("got %d plans, want %d", len(plans), fresh+1)
		}
		if plans[0].Injection != (TrialRange{N: injCov}) || plans[0].Beam != (TrialRange{N: beamCov}) {
			t.Fatalf("plan 0 is %+v, want the covered prefix %d+%d", plans[0], injCov, beamCov)
		}
		injNext, beamNext := 0, 0
		for k, p := range plans {
			if p.Index != k || p.Count != fresh+1 {
				t.Fatalf("plan %d mislabelled: %+v", k, p)
			}
			if err := s.checkPlan(p); err != nil {
				t.Fatalf("plan %d invalid: %v", k, err)
			}
			if p.Injection.Offset != injNext || p.Beam.Offset != beamNext {
				t.Fatalf("plan %d not contiguous: %+v (want offsets %d, %d)", k, p, injNext, beamNext)
			}
			injNext, beamNext = p.Injection.End(), p.Beam.End()
		}
		if injNext != ns.N || beamNext != ns.BeamRuns {
			t.Fatalf("plans cover %d+%d trials, want %d+%d", injNext, beamNext, ns.N, ns.BeamRuns)
		}
	}
	check(0, 0, 1)
	check(ns.N/2, ns.BeamRuns/2, 3)
	check(ns.N, 0, 2)
	check(0, ns.BeamRuns, 2)
	check(ns.N-1, ns.BeamRuns-1, 7)
	for i := 0; i < 200; i++ {
		injCov, beamCov := rng.Intn(ns.N+1), rng.Intn(ns.BeamRuns+1)
		if injCov == ns.N && beamCov == ns.BeamRuns {
			continue
		}
		check(injCov, beamCov, 1+rng.Intn(5))
	}

	for _, bad := range [][3]int{{0, 0, 0}, {-1, 0, 1}, {0, -1, 1}, {ns.N + 1, 0, 1}, {0, ns.BeamRuns + 1, 1}, {ns.N, ns.BeamRuns, 1}} {
		if _, err := s.PlanWithPrefix(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("PlanWithPrefix(%d, %d, %d) accepted", bad[0], bad[1], bad[2])
		}
	}
}

func TestCheckPlanAndRunPlanValidation(t *testing.T) {
	s := Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          6, Seed: 3, BenchSeed: 1, Workers: 2,
	}
	bad := []ShardPlan{
		{Index: 0, Count: 0},
		{Index: 2, Count: 2},
		{Index: -1, Count: 2},
		{Index: 0, Count: 1, Injection: TrialRange{Offset: -1, N: 2}},
		{Index: 0, Count: 1, Injection: TrialRange{Offset: 0, N: 7}},
		{Index: 0, Count: 1, Injection: TrialRange{Offset: 4, N: 3}},
		{Index: 0, Count: 1, Injection: TrialRange{Offset: 0, N: -1}},
		{Index: 0, Count: 1, Injection: TrialRange{N: 6}, Beam: TrialRange{Offset: 0, N: 1}},
	}
	for _, p := range bad {
		if err := s.checkPlan(p); err == nil {
			t.Errorf("checkPlan accepted %+v", p)
		}
		if _, err := s.RunPlan(context.Background(), p); err == nil {
			t.Errorf("RunPlan accepted %+v", p)
		}
	}
	// An explicit unbalanced plan is legal and matches the same trials of a
	// monolithic run.
	mono, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*SweepResult, 2)
	ranges := []TrialRange{{0, 1}, {1, 5}}
	for k, r := range ranges {
		if parts[k], err = s.RunPlan(context.Background(), ShardPlan{Index: k, Count: 2, Injection: r}); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeSweepResults(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mono, merged) {
		t.Fatal("uneven explicit plans merged differently from the monolithic run")
	}
}

// TestMergeSweepResultsRejectsBadTilings: the relaxed partition validation
// still refuses plans that gap, overlap or fall short of the trial space.
func TestMergeSweepResultsRejectsBadTilings(t *testing.T) {
	s := Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          6, Seed: 3, BenchSeed: 1, Workers: 2,
	}
	run := func(k int, r TrialRange) *SweepResult {
		t.Helper()
		p, err := s.RunPlan(context.Background(), ShardPlan{Index: k, Count: 2, Injection: r})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		a, b TrialRange
	}{
		{"gap", TrialRange{0, 2}, TrialRange{3, 3}},
		{"overlap", TrialRange{0, 4}, TrialRange{3, 3}},
		{"short", TrialRange{0, 2}, TrialRange{2, 3}},
		{"not from zero", TrialRange{1, 2}, TrialRange{3, 3}},
	}
	for _, c := range cases {
		if _, err := MergeSweepResults(run(0, c.a), run(1, c.b)); err == nil || !strings.Contains(err.Error(), "tile") && !strings.Contains(err.Error(), "cover") {
			t.Errorf("%s tiling %+v + %+v: %v, want a tiling error", c.name, c.a, c.b, err)
		}
	}
}

// TestCachedPrefixMergeBitIdentical is the acceptance test of the
// partial-overlap cache's correctness claim: a smaller sweep's complete
// artifact, sliced into a prefix partial and folded with freshly computed
// suffix ranges, reconstructs the larger sweep bit-identically — struct
// equality AND artifact bytes — while computing only the missing trials.
func TestCachedPrefixMergeBitIdentical(t *testing.T) {
	req := beamSweep()
	cached := req
	cached.N /= 2
	cached.BeamRuns /= 3
	cached.Workers = 2 // execution details must not matter

	cachedRes, err := cached.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the cached artifact through its serialised form — the
	// exact shape the serve cache reads back from disk.
	var buf bytes.Buffer
	if err := cachedRes.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cachedRes, err = ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	mono, err := req.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var monoJSON bytes.Buffer
	if err := mono.WriteJSON(&monoJSON); err != nil {
		t.Fatal(err)
	}

	for _, fresh := range []int{1, 2, 3} {
		plans, err := req.PlanWithPrefix(cached.N, cached.BeamRuns, fresh)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*SweepResult, len(plans))
		if parts[0], err = SliceResult(cachedRes, req, plans[0]); err != nil {
			t.Fatal(err)
		}
		computed := 0
		for k := 1; k < len(plans); k++ {
			if parts[k], err = req.RunPlan(context.Background(), plans[k]); err != nil {
				t.Fatal(err)
			}
			computed += plans[k].Injection.N + plans[k].Beam.N
		}
		ns := req.normalized()
		if want := (ns.N - cached.N) + (ns.BeamRuns - cached.BeamRuns); computed != want {
			t.Fatalf("fresh=%d computed %d trials, want exactly the missing %d", fresh, computed, want)
		}
		merged, err := MergeSweepResults(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mono, merged) {
			t.Fatalf("fresh=%d: cached-prefix merge differs from monolithic run", fresh)
		}
		var mergedJSON bytes.Buffer
		if err := merged.WriteJSON(&mergedJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(monoJSON.Bytes(), mergedJSON.Bytes()) {
			t.Fatalf("fresh=%d: cached-prefix artifact not byte-identical to monolithic artifact", fresh)
		}
	}
}

func TestSliceResultValidation(t *testing.T) {
	req := Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          8, Seed: 3, BenchSeed: 1, Workers: 2,
	}
	cached := req
	cached.N = 4
	cachedRes, err := cached.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prefix := ShardPlan{Index: 0, Count: 2, Injection: TrialRange{N: 4}}

	if _, err := SliceResult(nil, req, prefix); err == nil {
		t.Error("accepted a nil cached result")
	}
	shard, err := cached.RunShard(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SliceResult(shard, req, prefix); err == nil || !strings.Contains(err.Error(), "shard partial") {
		t.Errorf("accepted a shard partial as the cached artifact: %v", err)
	}
	other := req
	other.Seed = 4
	if _, err := SliceResult(cachedRes, other, prefix); err == nil || !strings.Contains(err.Error(), "base") {
		t.Errorf("accepted a base mismatch: %v", err)
	}
	if _, err := SliceResult(cachedRes, req, ShardPlan{Index: 0, Count: 2, Injection: TrialRange{N: 3}}); err == nil {
		t.Error("accepted a plan narrower than the cached extent")
	}
	if _, err := SliceResult(cachedRes, req, ShardPlan{Index: 0, Count: 2, Injection: TrialRange{N: 5}}); err == nil {
		t.Error("accepted a plan wider than the cached extent")
	}
	if _, err := SliceResult(cachedRes, req, ShardPlan{Index: 0, Count: 2, Injection: TrialRange{Offset: 1, N: 4}}); err == nil {
		t.Error("accepted a non-prefix plan")
	}
	// A cached sweep larger than the request cannot slice: its extent
	// escapes the request's trial space.
	big := req
	big.N = 16
	bigRes, err := big.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SliceResult(bigRes, req, ShardPlan{Index: 0, Count: 2, Injection: TrialRange{N: 16}}); err == nil {
		t.Error("accepted a cached sweep larger than the request")
	}

	// The happy path stamps the request spec and plan.
	got, err := SliceResult(cachedRes, req, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard == nil || *got.Shard != prefix {
		t.Fatalf("slice tagged %+v, want %+v", got.Shard, prefix)
	}
	ns := req.normalized()
	ns.Progress = nil
	if !reflect.DeepEqual(got.Spec, ns) {
		t.Fatalf("slice spec %+v, want the normalized request spec %+v", got.Spec, ns)
	}
	if len(got.Cells) != 1 || got.Cells[0].Result != cachedRes.Cells[0].Result {
		t.Fatal("slice does not share the cached cell results")
	}
}
