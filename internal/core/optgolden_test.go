package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/state"
)

// The hot-path optimizations (reseeded per-trial RNGs, the in-order
// ParallelFor, lane-batched Work accounting, reused output scratch and the
// unarmed kernel fast paths) all promise the same thing: campaign artifacts
// stay byte-identical to the pre-optimization engine, for any worker count.
// These goldens were captured from the engine BEFORE any of those changes
// landed, so the promise is checked against history, not against the
// current code agreeing with itself. Regenerate only when a deliberate
// semantic change is intended: go test ./internal/core -run OptGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the pre-optimization campaign goldens")

// goldenCampaigns is the grid the goldens cover: every benchmark, all four
// fault models cycling, with records kept so per-injection fields (site,
// bits, outcome, pattern, panic message) are all pinned — plus one
// by-bytes-policy arm, which exercises registry site selection differently.
func goldenCampaigns() []core.CampaignConfig {
	var cfgs []core.CampaignConfig
	for _, b := range []string{"DGEMM", "LUD", "HotSpot", "LavaMD", "NW", "CLAMR"} {
		cfgs = append(cfgs, core.CampaignConfig{
			Benchmark: b, N: 160, Seed: 20260808, BenchSeed: 1,
			KeepRecords: true,
		})
	}
	cfgs = append(cfgs, core.CampaignConfig{
		Benchmark: "DGEMM", N: 160, Seed: 20260808, BenchSeed: 1,
		Policy: state.ByBytes, KeepRecords: true,
	})
	return cfgs
}

func goldenPath(cfg core.CampaignConfig) string {
	name := cfg.Benchmark
	if cfg.Policy != state.ByFrameThenVariable {
		name += "-" + cfg.Policy.String()
	}
	return filepath.Join("testdata", "optgolden", name+".json")
}

func marshalResult(t *testing.T, res *core.CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOptGoldenCampaigns runs every golden campaign at several worker
// counts and requires each artifact to match the committed pre-optimization
// bytes exactly.
func TestOptGoldenCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, cfg := range goldenCampaigns() {
		cfg := cfg
		t.Run(filepath.Base(goldenPath(cfg)), func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(goldenPath(cfg))
			if err != nil && !*updateGolden {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			for _, workers := range []int{1, 3, 8} {
				c := cfg
				c.Workers = workers
				res, err := core.RunCampaign(c)
				if err != nil {
					t.Fatal(err)
				}
				got := marshalResult(t, res)
				if *updateGolden && workers == 1 {
					if err := os.MkdirAll(filepath.Dir(goldenPath(cfg)), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(goldenPath(cfg), got, 0o644); err != nil {
						t.Fatal(err)
					}
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: campaign artifact differs from pre-optimization golden %s",
						workers, goldenPath(cfg))
				}
			}
		})
	}
}
