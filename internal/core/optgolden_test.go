package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/state"
)

// The hot-path optimizations (reseeded per-trial RNGs, the in-order
// ParallelFor, lane-batched Work accounting, reused output scratch and the
// unarmed kernel fast paths) all promise the same thing: campaign artifacts
// stay byte-identical to the pre-optimization engine, for any worker count.
// The goldens were captured from the engine BEFORE any of those changes
// landed, so the promise is checked against history, not against the
// current code agreeing with itself. testdata/optgolden.sum holds one
// digest per campaign result and per record (sumLines), so a mismatch
// names the record that moved. Regenerate only when a deliberate semantic
// change is intended, over the whole grid:
// go test ./internal/core -run OptGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the pre-optimization campaign digests in testdata/optgolden.sum")

var sumPath = filepath.Join("testdata", "optgolden.sum")

// goldenCampaigns is the grid the goldens cover: every benchmark, all four
// fault models cycling, with records observed so per-injection fields
// (site, bits, outcome, pattern, panic message) are all pinned — plus one
// by-bytes-policy arm, which exercises registry site selection differently.
func goldenCampaigns() []core.CampaignConfig {
	var cfgs []core.CampaignConfig
	for _, b := range []string{"DGEMM", "LUD", "HotSpot", "LavaMD", "NW", "CLAMR"} {
		cfgs = append(cfgs, core.CampaignConfig{
			Benchmark: b, N: 160, Seed: 20260808, BenchSeed: 1,
		})
	}
	cfgs = append(cfgs, core.CampaignConfig{
		Benchmark: "DGEMM", N: 160, Seed: 20260808, BenchSeed: 1,
		Policy: state.ByBytes,
	})
	return cfgs
}

// goldenName names a golden campaign in the sum file.
func goldenName(cfg core.CampaignConfig) string {
	name := cfg.Benchmark
	if cfg.Policy != state.ByFrameThenVariable {
		name += "-" + cfg.Policy.String()
	}
	return name
}

// sumKey names line i of a campaign's sums: its result for i < 0, else
// record i.
func sumKey(name string, i int) string {
	if i < 0 {
		return name + " result"
	}
	return name + " " + strconv.Itoa(i)
}

// digest is the first 64 bits, in hex, of the SHA-256 of v's JSON
// encoding: the compact form of the encoding a campaign artifact holds.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// sumLines are a campaign's lines of the sum file, in order: "<campaign>
// result <digest>" for the result without its records, then "<campaign>
// <index> <digest>" for each record.
func sumLines[R any](t *testing.T, name string, res any, recs []R) []string {
	lines := []string{sumKey(name, -1) + " " + digest(t, res)}
	for i, r := range recs {
		lines = append(lines, sumKey(name, i)+" "+digest(t, r))
	}
	return lines
}

// readSum reads a sum file as its keys, in file order, and their digests.
func readSum(path string) ([]string, map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return parseSum(strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"))
}

// parseSum splits sum lines into their keys, in order, and their digests.
func parseSum(lines []string) ([]string, map[string]string, error) {
	var keys []string
	sums := map[string]string{}
	for i, line := range lines {
		k := strings.LastIndexByte(line, ' ')
		if k < 0 {
			return nil, nil, fmt.Errorf("%s:%d: %q is not \"<key> <digest>\"", sumPath, i+1, line)
		}
		keys = append(keys, line[:k])
		sums[line[:k]] = line[k+1:]
	}
	return keys, sums, nil
}

// writeSum rewrites the sum file from every campaign's fresh lines, in
// grid order, unless a run failed.
func writeSum(t *testing.T, names []string, fresh map[string][]string) {
	if t.Failed() {
		return
	}
	var all []string
	for _, name := range names {
		lines, ok := fresh[name]
		if !ok {
			t.Errorf("-update-golden: campaign %s did not run; %s is written from the whole grid", name, sumPath)
			return
		}
		all = append(all, lines...)
	}
	if err := os.WriteFile(sumPath, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
		t.Error(err)
	}
}

// checkSum fails on the first record of a live campaign whose digest moved
// from the golden sums (or on its result, when no record moved), naming
// the campaign, the worker count and the record, and printing its live
// JSON.
func checkSum[R any](t *testing.T, name string, workers int, lines []string, sums map[string]string, res any, recs []R) {
	t.Helper()
	first, moved := -1, 0
	for i, line := range lines {
		k := strings.LastIndexByte(line, ' ')
		if sums[line[:k]] == line[k+1:] {
			continue
		}
		moved++
		if first < 0 && i > 0 {
			first = i - 1
		}
	}
	if moved == 0 {
		return
	}
	what, v := "its result", any(res)
	if first >= 0 {
		what, v = fmt.Sprintf("record %d", first), recs[first]
	}
	live, _ := json.MarshalIndent(v, "", " ")
	t.Fatalf("%s workers=%d: %s moved from %s (golden %q, live %q; %d of %d lines moved); live JSON:\n%s",
		name, workers, what, sumPath, sums[sumKey(name, first)], digest(t, v), moved, len(lines), live)
}

// TestOptGoldenCampaigns runs every golden campaign at several worker
// counts and requires each result and record to match its committed
// pre-optimization digest.
func TestOptGoldenCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, sums, err := readSum(sumPath)
	if err != nil && !*updateGolden {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	var mu sync.Mutex
	fresh := map[string][]string{}
	if *updateGolden {
		var names []string
		for _, cfg := range goldenCampaigns() {
			names = append(names, goldenName(cfg))
		}
		t.Cleanup(func() { writeSum(t, names, fresh) })
	}
	for _, cfg := range goldenCampaigns() {
		cfg := cfg
		name := goldenName(cfg)
		// Each subtest keeps the name of the JSON golden its digests replaced.
		t.Run(name+".json", func(t *testing.T) {
			t.Parallel()
			want := sums
			for _, workers := range []int{1, 3, 8} {
				c := cfg
				c.Workers = workers
				recs := make([]core.InjectionRecord, c.N)
				c.Observe = func(r core.InjectionRecord) { recs[r.Seq] = r }
				res, err := core.RunCampaign(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				lines := sumLines(t, name, res, recs)
				if *updateGolden && workers == 1 {
					mu.Lock()
					fresh[name] = lines
					mu.Unlock()
					_, want, _ = parseSum(lines)
					continue
				}
				checkSum(t, name, workers, lines, want, res, recs)
			}
		})
	}
}

// TestOptGoldenSumCoversGrid requires the sum file to hold exactly the
// lines the harness checks, in its order, so a renamed or resized campaign
// cannot leave its old digests unchecked. It runs after the harness, so it
// reads what an -update-golden run wrote.
func TestOptGoldenSumCoversGrid(t *testing.T) {
	keys, _, err := readSum(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, cfg := range goldenCampaigns() {
		for i := -1; i < cfg.N; i++ {
			want = append(want, sumKey(goldenName(cfg), i))
		}
	}
	i := 0
	for i < len(keys) && i < len(want) && keys[i] == want[i] {
		i++
	}
	if i < len(keys) || i < len(want) {
		t.Fatalf("%s holds %d lines and the harness checks %d; they part at line %d (-update-golden rewrites the file)",
			sumPath, len(keys), len(want), i+1)
	}
}
