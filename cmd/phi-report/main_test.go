package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/state"
)

// TestMain doubles as the phi-report executable (re-exec'd with
// PHIREL_BE_PHI_REPORT=1), so exit codes and stderr text are tested exactly
// as an operator sees them.
func TestMain(m *testing.M) {
	if os.Getenv("PHIREL_BE_PHI_REPORT") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runReport(t *testing.T, args ...string) (int, string) {
	t.Helper()
	code, _, stderr := runReportIO(t, "", args...)
	return code, stderr
}

// runReportIO re-execs phi-report with stdin wired up — the transport the
// '-in -' convention reads from — and captures both output streams.
func runReportIO(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PHIREL_BE_PHI_REPORT=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stdout.String(), stderr.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec failed before main ran: %v", err)
	}
	return ee.ExitCode(), stdout.String(), stderr.String()
}

func expectReportFailure(t *testing.T, needle string, args ...string) {
	t.Helper()
	code, stderr := runReport(t, args...)
	if code == 0 {
		t.Fatalf("phi-report %v exited 0, want failure", args)
	}
	if !strings.Contains(stderr, needle) {
		t.Fatalf("phi-report %v stderr misses %q:\n%s", args, needle, stderr)
	}
}

func TestReportNoInput(t *testing.T) {
	expectReportFailure(t, "missing -in")
}

func TestReportSweepMissingFile(t *testing.T) {
	expectReportFailure(t, "no such file", "-sweep", filepath.Join(t.TempDir(), "nope.json"))
}

func TestReportSweepTruncatedArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(`{"spec": {"n"`), 0o644); err != nil {
		t.Fatal(err)
	}
	expectReportFailure(t, "truncated", "-sweep", path)
}

// TestReportSweepRejectsUnmergedShardPartial: rendering one shard as if it
// were the campaign would silently misreport every figure, so the CLI must
// refuse and point at phi-merge.
func TestReportSweepRejectsUnmergedShardPartial(t *testing.T) {
	spec := fleet.Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          6, Seed: 1701, BenchSeed: 1, Workers: 2,
	}
	res, err := spec.RunShard(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep-shard-1-of-3.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	expectReportFailure(t, "phi-merge", "-sweep", path)
	expectReportFailure(t, "unmerged shard partial", "-sweep", path)
}

func TestReportLogMissingFile(t *testing.T) {
	expectReportFailure(t, "no such file", "-in", filepath.Join(t.TempDir(), "nope.jsonl"))
}

func TestReportLogEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	expectReportFailure(t, "no records", "-in", path)
}

// TestReportLogStdinEmpty: '-in -' reads stdin, so the empty-input error
// must name stdin, not a file called "-".
func TestReportLogStdinEmpty(t *testing.T) {
	code, _, stderr := runReportIO(t, "", "-in", "-")
	if code == 0 {
		t.Fatal("phi-report -in - with empty stdin exited 0, want failure")
	}
	if !strings.Contains(stderr, "no records in stdin") {
		t.Fatalf("stderr misses %q:\n%s", "no records in stdin", stderr)
	}
}

func TestReportLogStdinGarbage(t *testing.T) {
	code, _, stderr := runReportIO(t, "this is not a JSONL log\n", "-in", "-")
	if code == 0 {
		t.Fatal("phi-report -in - with garbage stdin exited 0, want failure")
	}
	if stderr == "" {
		t.Fatal("no error reported for garbage stdin")
	}
}

// TestReportLogStdin: a piped JSONL log renders the same tables as a file
// input — the streaming form of the parser path.
func TestReportLogStdin(t *testing.T) {
	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	for seq, outcome := range []string{"masked", "sdc", "masked"} {
		rec := core.InjectionRecord{
			Seq: seq, Benchmark: "DGEMM", Model: "single", Outcome: outcome,
			Region: "input", Elem: -1, Fired: true,
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr := runReportIO(t, log.String(), "-in", "-")
	if code != 0 {
		t.Fatalf("phi-report -in - exited %d:\n%s", code, stderr)
	}
	// "W5": DGEMM's five windows come from the registry, though every
	// record here hit the first.
	for _, needle := range []string{"Figure 4", "DGEMM", "W5"} {
		if !strings.Contains(stdout, needle) {
			t.Fatalf("stdout misses %q:\n%s", needle, stdout)
		}
	}
}

// TestReportLogMatchesCampaign: a log re-derives exactly the tables its
// campaigns render as. Campaigns on two benchmarks under two policies hand
// their records to a log through Observe; phi-report -in over that log
// must print, byte for byte, figures' policy group of each policy's
// results, in policy order, each under its banner.
func TestReportLogMatchesCampaign(t *testing.T) {
	var (
		mu  sync.Mutex
		log bytes.Buffer
	)
	enc := json.NewEncoder(&log)
	var want strings.Builder
	for _, policy := range []state.Policy{state.ByFrameThenVariable, state.ByBytes} {
		results := map[string]*core.CampaignResult{}
		for _, name := range []string{"DGEMM", "NW"} {
			res, err := core.RunCampaign(core.CampaignConfig{
				Benchmark: name, N: 30, Policy: policy, Seed: 7, BenchSeed: 1, Workers: 2,
				Observe: func(rec core.InjectionRecord) {
					mu.Lock()
					defer mu.Unlock()
					if err := enc.Encode(rec); err != nil {
						t.Error(err)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			results[name] = res
		}
		g := figures.PolicyGroup(policy, results)
		want.WriteString("== " + g.Label + " ==\n\n")
		for _, tab := range g.Tables {
			want.WriteString(tab.String() + "\n")
		}
	}
	code, stdout, stderr := runReportIO(t, log.String(), "-in", "-")
	if code != 0 {
		t.Fatalf("phi-report -in - exited %d:\n%s", code, stderr)
	}
	if stdout != want.String() {
		t.Fatalf("phi-report -in printed\n%s\nwant the campaigns' own tables\n%s", stdout, want.String())
	}
}

func TestReportLogUnknownBenchmark(t *testing.T) {
	rec := `{"seq":0,"benchmark":"NoSuchKernel","model":"Single","outcome":"masked","elem":-1}` + "\n"
	code, _, stderr := runReportIO(t, rec, "-in", "-")
	if code == 0 || !strings.Contains(stderr, "NoSuchKernel") {
		t.Fatalf("phi-report -in over an unregistered benchmark exited %d:\n%s", code, stderr)
	}
}
