package cli_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"phirel/internal/cli"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/state"
)

func expectReportFailure(t *testing.T, needle string, args ...string) {
	t.Helper()
	code, _, stderr := call(t, cli.Report, "", args...)
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
	code, _, stderr := call(t, cli.Report, "", "-in", "-")
	if code == 0 {
		t.Fatal("phi-report -in - with empty stdin exited 0, want failure")
	}
	if !strings.Contains(stderr, "no records in stdin") {
		t.Fatalf("stderr misses %q:\n%s", "no records in stdin", stderr)
	}
}

func TestReportLogStdinGarbage(t *testing.T) {
	code, _, stderr := call(t, cli.Report, "this is not a JSONL log\n", "-in", "-")
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
	for seq, outcome := range []string{"Masked", "SDC", "Masked"} {
		rec := core.InjectionRecord{
			Seq: seq, Benchmark: "DGEMM", Model: "Single", Outcome: outcome,
			Pattern: "none", Region: "input", Elem: -1, Fired: true,
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	code, stdout, stderr := call(t, cli.Report, log.String(), "-in", "-")
	if code != 0 {
		t.Fatalf("phi-report -in - exited %d:\n%s", code, stderr)
	}
	// "W5": DGEMM's five windows come from the registry, though every
	// record here hit the first. "33.3": the one SDC in three records.
	for _, needle := range []string{"Figure 4", "DGEMM", "W5", "33.3"} {
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
			res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
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
	code, stdout, stderr := call(t, cli.Report, log.String(), "-in", "-")
	if code != 0 {
		t.Fatalf("phi-report -in - exited %d:\n%s", code, stderr)
	}
	if stdout != want.String() {
		t.Fatalf("phi-report -in printed\n%s\nwant the campaigns' own tables\n%s", stdout, want.String())
	}
}

func TestReportLogUnknownBenchmark(t *testing.T) {
	rec := `{"seq":0,"benchmark":"NoSuchKernel","model":"Single","outcome":"Masked","pattern":"none","elem":-1}` + "\n"
	code, _, stderr := call(t, cli.Report, rec, "-in", "-")
	if code == 0 || !strings.Contains(stderr, "NoSuchKernel") {
		t.Fatalf("phi-report -in over an unregistered benchmark exited %d:\n%s", code, stderr)
	}
}

// TestReportLogRefusesUnreadableRecords: a record whose outcome, model,
// policy or pattern no campaign writes is refused with its line number,
// not counted under a default (a lower-case "sdc" once read as Masked).
// An empty policy is the campaign default and reads.
func TestReportLogRefusesUnreadableRecords(t *testing.T) {
	const good = `{"seq":0,"benchmark":"DGEMM","model":"Single","policy":"by-bytes","outcome":"SDC","pattern":"Line","elem":-1}`
	cases := []struct{ field, from, to string }{
		{"outcome", `"outcome":"SDC"`, `"outcome":"sdc"`},
		{"model", `"model":"Single"`, `"model":"single"`},
		{"policy", `"policy":"by-bytes"`, `"policy":"bytes"`},
		{"pattern", `"pattern":"Line"`, `"pattern":"line"`},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			bad := strings.Replace(good, c.from, c.to, 1)
			code, _, stderr := call(t, cli.Report, good+"\n\n"+bad+"\n", "-in", "-")
			if code != 1 || !strings.Contains(stderr, "line 3") || !strings.Contains(stderr, "unknown "+c.field) {
				t.Fatalf("phi-report -in over a record with a bad %s exited %d, want 1 naming line 3:\n%s", c.field, code, stderr)
			}
		})
	}
	noPolicy := strings.Replace(good, `"policy":"by-bytes",`, "", 1)
	if code, stdout, stderr := call(t, cli.Report, noPolicy+"\n", "-in", "-"); code != 0 || !strings.Contains(stdout, "Figure 4") {
		t.Fatalf("phi-report -in over a record with no policy exited %d:\n%s", code, stderr)
	}
}
