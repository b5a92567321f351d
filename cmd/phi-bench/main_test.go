package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"phirel/internal/distrib"
	"phirel/internal/fault"
	"phirel/internal/fleet"
)

// TestMain doubles as the phi-bench executable: re-exec'd with
// PHIREL_BE_PHI_BENCH=1, the test binary runs main(), so flag handling —
// exit codes and stderr text included — is exercised exactly as an
// operator or a fan-out supervisor hits it, without building the command
// first.
func TestMain(m *testing.M) {
	if os.Getenv("PHIREL_BE_PHI_BENCH") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench re-execs this binary as phi-bench and returns (exit code, stderr).
func runBench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PHIREL_BE_PHI_BENCH=1")
	cmd.Stdout = io.Discard
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec failed before main ran: %v", err)
	}
	return ee.ExitCode(), stderr.String()
}

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
		if code, stderr := runBench(t, append([]string{"-spec", specPath, "-out", out}, args...)...); code != 0 {
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
			"-checkpoint-out and -resume-from need -shard or -plan"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".json")
			code, stderr := runBench(t, append([]string{"-spec", specPath, "-out", out}, c.args...)...)
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
