package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/state"
)

// shardCampaign runs the [off, off+n) slice of the canonical merge-test
// campaign.
func shardCampaign(t *testing.T, off, n int) *CampaignResult {
	t.Helper()
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Benchmark: "DGEMM", N: n, Offset: off, Seed: 42, BenchSeed: 1,
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCampaignMergeShardsEqualsWhole is the sharding acceptance property at
// the campaign layer: uneven shard runs partitioning [0, N) merge into a
// result deep-equal to the monolithic campaign — every tally partition,
// and the fired-share proportion.
func TestCampaignMergeShardsEqualsWhole(t *testing.T) {
	whole := shardCampaign(t, 0, 60)
	for _, cuts := range [][]int{
		{0, 60},
		{0, 25, 60},
		{0, 7, 30, 41, 60},
	} {
		acc := shardCampaign(t, cuts[0], cuts[1]-cuts[0]).Clone()
		for i := 1; i+1 < len(cuts); i++ {
			part := shardCampaign(t, cuts[i], cuts[i+1]-cuts[i])
			if err := acc.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(whole, acc) {
			t.Fatalf("cuts %v: merged shards differ from monolithic campaign:\n%+v\n%+v", cuts, whole, acc)
		}
	}
}

// TestCampaignMergePrepend checks the reverse adjacency: folding the
// earlier range into the later one lands on the same result.
func TestCampaignMergePrepend(t *testing.T) {
	whole := shardCampaign(t, 0, 40)
	acc := shardCampaign(t, 25, 15).Clone()
	if err := acc.Merge(shardCampaign(t, 0, 25)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, acc) {
		t.Fatal("prepend merge differs from monolithic campaign")
	}
}

// TestCampaignAddProperty: a campaign's records split into k random
// groups, each group folded on its own and the groups added in a random
// order, equal one fold of all of them — the algebra the engine's worker
// shards, Merge and a sweep's per-benchmark sum all rest on.
func TestCampaignAddProperty(t *testing.T) {
	cfg := CampaignConfig{Benchmark: "DGEMM", N: 60, Seed: 42, BenchSeed: 1, Workers: 3}
	recs := observe(&cfg)
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := NewCampaignResult("DGEMM", cfg.Policy, 0, res.Windows)
	for _, rec := range recs {
		whole.Fold(rec)
	}
	if !reflect.DeepEqual(whole, res) {
		t.Fatalf("one fold of the records %+v differs from the campaign %+v", whole, res)
	}
	rng := rand.New(rand.NewSource(1701))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		groups := make([]*CampaignResult, k)
		for g := range groups {
			groups[g] = NewCampaignResult("DGEMM", cfg.Policy, 0, res.Windows)
		}
		for _, rec := range recs {
			groups[rng.Intn(k)].Fold(rec)
		}
		order := rng.Perm(k)
		acc := groups[order[0]]
		for _, g := range order[1:] {
			acc.Add(groups[g])
		}
		if !reflect.DeepEqual(acc, whole) {
			t.Fatalf("trial %d: %d groups added in order %v give %+v, one fold %+v", trial, k, order, acc, whole)
		}
	}
}

func TestCampaignMergeClone(t *testing.T) {
	a := shardCampaign(t, 0, 20)
	c := a.Clone()
	if !reflect.DeepEqual(a, c) {
		t.Fatal("clone differs from original")
	}
	c.ByModel[fault.Single] = OutcomeCounts{Masked: 999}
	if reflect.DeepEqual(a, c) {
		t.Fatal("clone shares storage with original")
	}
}

func TestCampaignMergeValidation(t *testing.T) {
	base := shardCampaign(t, 0, 10)
	other := base.Clone()
	other.Offset = 10
	other.Benchmark = "LUD"
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted cross-benchmark merge")
	}
	other = base.Clone()
	other.Offset = 10
	other.Policy = state.ByBytes
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted cross-policy merge")
	}
	other = base.Clone()
	other.Offset = 10
	other.Windows = 3
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted mismatched window counts")
	}
	// Overlapping and gapped ranges both break the contiguous-range
	// algebra (a gap would misorder a later fold), so both are rejected.
	if err := base.Clone().Merge(base.Clone()); err == nil {
		t.Fatal("accepted overlapping ranges")
	}
	other = base.Clone()
	other.Offset = 11
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted gapped ranges")
	}
}
