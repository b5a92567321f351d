package cli_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phirel/internal/cli"
	"phirel/internal/distrib"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/state"
)

// writeSpec writes a tiny mixed sweep (injection and beam cells) as a spec
// file in dir.
func writeSpec(t *testing.T, dir string) (fleet.Sweep, string) {
	t.Helper()
	spec := fleet.Sweep{
		Benchmarks:     []string{"DGEMM"},
		Models:         []fault.Model{fault.Single},
		N:              7,
		BeamRuns:       11,
		BeamBenchmarks: []string{"DGEMM"},
		Seed:           1701, BenchSeed: 1, Workers: 2,
	}
	path := filepath.Join(dir, "spec.json")
	if err := spec.WriteSpecFile(path); err != nil {
		t.Fatal(err)
	}
	return spec, path
}

// TestShardIsPlanSugar: -shard k/K is the balanced plan, so it writes the
// very bytes -plan writes for spec.Plan(k-1, K).
func TestShardIsPlanSugar(t *testing.T) {
	dir := t.TempDir()
	spec, specPath := writeSpec(t, dir)
	plan, err := spec.Plan(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string][]string{
		"shard.json": {"-shard", "2/3"},
		"plan.json":  {"-plan", distrib.FormatPlanArg(plan)},
	}
	for name, args := range outs {
		out := filepath.Join(dir, name)
		if code, _, stderr := call(t, cli.Bench, "", append([]string{"-spec", specPath, "-out", out}, args...)...); code != 0 {
			t.Fatalf("phi-bench %v exited %d:\n%s", args, code, stderr)
		}
	}
	shard, err := os.ReadFile(filepath.Join(dir, "shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	planned, err := os.ReadFile(filepath.Join(dir, "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shard, planned) {
		t.Fatal("-shard 2/3 and -plan of the same balanced plan wrote different partials")
	}
	part, err := fleet.ReadShardFile(filepath.Join(dir, "shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	if *part.Shard != plan {
		t.Fatalf("-shard 2/3 partial records plan %+v, want %+v", *part.Shard, plan)
	}
}

// TestBenchTakesACommaList: -bench names a list as -models does, and the
// grid it builds is the spec's: the artifact of -bench DGEMM,LUD is the
// very bytes of a -spec listing the two benchmarks. carol-fi reads the
// list the same way, and a list naming an unknown benchmark still fails.
func TestBenchTakesACommaList(t *testing.T) {
	dir := t.TempDir()
	spec := fleet.Sweep{
		Benchmarks: []string{"DGEMM", "LUD"},
		Policies:   []state.Policy{state.ByFrameThenVariable},
		N:          4,
		Seed:       1701, BenchSeed: 1, Workers: 8,
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := spec.WriteSpecFile(specPath); err != nil {
		t.Fatal(err)
	}
	flags := mustCall(t, cli.Bench, "-sweep", "-bench", "DGEMM,LUD", "-n", "4", "-out", "-")
	specced := mustCall(t, cli.Bench, "-spec", specPath, "-out", "-")
	if flags != specced {
		t.Fatal("-bench DGEMM,LUD and a spec of the two benchmarks wrote different artifacts")
	}
	if out := mustCall(t, cli.CarolFI, "-bench", "DGEMM,LUD", "-n", "4", "-models", "Single"); !strings.Contains(out, "LUD") {
		t.Fatalf("carol-fi -bench DGEMM,LUD printed no LUD row:\n%s", out)
	}
	if code, _, stderr := call(t, cli.Bench, "", "-sweep", "-bench", "DGEMM,nope", "-n", "4", "-out", "-"); code != 1 ||
		!strings.Contains(stderr, `unknown benchmark "nope"`) {
		t.Fatalf("-bench DGEMM,nope exited %d:\n%s", code, stderr)
	}
}

// TestSweepFlagErrors: a malformed or contradictory shard request exits
// non-zero with a message naming the problem, before any trial runs.
func TestSweepFlagErrors(t *testing.T) {
	dir := t.TempDir()
	_, specPath := writeSpec(t, dir)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"trailing garbage", []string{"-shard", "2/30x"}, `bad -shard "2/30x": want k/K`},
		{"zero index", []string{"-shard", "0/3"}, `bad -shard "0/3": k must be in 1..K`},
		{"shard and plan", []string{"-shard", "1/3", "-plan", "1/3:0+2:0+3"}, "-shard and -plan are mutually exclusive"},
		{"checkpoint without a plan", []string{"-checkpoint-out", filepath.Join(dir, "ck.json")},
			"-checkpoint-out needs -shard or -plan"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".json")
			code, _, stderr := call(t, cli.Bench, "", append([]string{"-spec", specPath, "-out", out}, c.args...)...)
			if code == 0 {
				t.Fatalf("phi-bench %v succeeded", c.args)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("phi-bench %v stderr %q, want %q", c.args, stderr, c.want)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("phi-bench %v left an artifact behind (stat: %v)", c.args, err)
			}
		})
	}
}
