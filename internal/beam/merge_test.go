package beam

import (
	"reflect"
	"testing"

	_ "phirel/internal/bench/all"
)

// shardBeam runs the [off, off+n) slice of the canonical beam merge-test
// campaign.
func shardBeam(t *testing.T, off, n int, disableECC bool) *Result {
	t.Helper()
	res, err := Run(Config{
		Benchmark: "DGEMM", Runs: n, Offset: off, Seed: 1701, BenchSeed: 1,
		Workers: 3, DisableECC: disableECC,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBeamMergeShardsEqualsWhole: uneven shard campaigns partitioning the
// global run space merge into a result deep-equal to the monolithic beam
// campaign — including the Figure 3 relative-error series, whose global
// order only survives because merges keep ranges contiguous.
func TestBeamMergeShardsEqualsWhole(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 90
	}
	// The ablation arm maximises SDCs so RelErrs ordering is exercised.
	whole := shardBeam(t, 0, n, true)
	if len(whole.RelErrs) == 0 {
		t.Fatal("fixture produced no SDCs; RelErrs order not exercised")
	}
	for _, cuts := range [][]int{
		{0, n},
		{0, n / 3, n},
		{0, n / 5, n / 2, n - 7, n},
	} {
		acc := shardBeam(t, cuts[0], cuts[1]-cuts[0], true).Clone()
		for i := 1; i+1 < len(cuts); i++ {
			part := shardBeam(t, cuts[i], cuts[i+1]-cuts[i], true)
			if err := acc.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(whole, acc) {
			t.Fatalf("cuts %v: merged shards differ from monolithic campaign", cuts)
		}
	}
}

// TestBeamMergePrepend checks the reverse adjacency fold, which must
// prepend the earlier shard's RelErrs.
func TestBeamMergePrepend(t *testing.T) {
	whole := shardBeam(t, 0, 120, true)
	acc := shardBeam(t, 70, 50, true).Clone()
	if err := acc.Merge(shardBeam(t, 0, 70, true)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, acc) {
		t.Fatal("prepend merge differs from monolithic campaign")
	}
}

func TestBeamMergeClone(t *testing.T) {
	a := shardBeam(t, 0, 60, true)
	c := a.Clone()
	if !reflect.DeepEqual(a, c) {
		t.Fatal("clone differs from original")
	}
	for p := range c.SDCByPattern {
		c.SDCByPattern[p] += 1000
	}
	if len(c.RelErrs) > 0 {
		c.RelErrs[0] = -1
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("clone shares storage with original")
	}
}

func TestBeamMergeValidation(t *testing.T) {
	base := shardBeam(t, 0, 30, false)
	other := base.Clone()
	other.Offset = 30
	other.Benchmark = "LUD"
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted cross-benchmark merge")
	}
	other = base.Clone()
	other.Offset = 30
	other.Device = "KNC5110P"
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted cross-device merge")
	}
	other = base.Clone()
	other.Offset = 30
	other.ECCDisabled = true
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted cross-arm merge")
	}
	other = base.Clone()
	other.Offset = 30
	other.RawFaultRate *= 2
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted mismatched raw fault rates")
	}
	if err := base.Clone().Merge(base.Clone()); err == nil {
		t.Fatal("accepted overlapping ranges")
	}
	other = base.Clone()
	other.Offset = 31
	if err := base.Clone().Merge(other); err == nil {
		t.Fatal("accepted gapped ranges")
	}
}
