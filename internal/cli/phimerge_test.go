package cli_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phirel/internal/cli"
	"phirel/internal/fault"
	"phirel/internal/fleet"
)

// testPartials runs a tiny 2-way sharded sweep and writes its partials plus
// the monolithic reference artifact into dir.
func testPartials(t *testing.T, dir string) (parts []string, mono string) {
	t.Helper()
	spec := fleet.Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          6, Seed: 1701, BenchSeed: 1, Workers: 2,
	}
	for k := 0; k < 2; k++ {
		res, err := spec.RunShard(context.Background(), k, 2)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("sweep-shard-%d-of-2.json", k+1))
		if err := res.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, path)
	}
	res, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mono = filepath.Join(dir, "sweep.json")
	if err := res.WriteFile(mono); err != nil {
		t.Fatal(err)
	}
	return parts, mono
}

// expectFailure asserts a non-zero exit whose stderr carries the needle —
// the operator-facing contract for every error path.
func expectFailure(t *testing.T, needle string, args ...string) {
	t.Helper()
	code, _, stderr := call(t, cli.Merge, "", args...)
	if code == 0 {
		t.Fatalf("phi-merge %v exited 0, want failure", args)
	}
	if !strings.Contains(stderr, needle) {
		t.Fatalf("phi-merge %v stderr misses %q:\n%s", args, needle, stderr)
	}
}

func TestMergeNoArgs(t *testing.T) {
	expectFailure(t, "no shard files given")
}

func TestMergeMissingFile(t *testing.T) {
	expectFailure(t, "no partial artifacts match", filepath.Join(t.TempDir(), "nope.json"))
}

func TestMergeDuplicatePartialPath(t *testing.T) {
	parts, _ := testPartials(t, t.TempDir())
	expectFailure(t, "twice", parts[0], parts[0], parts[1])
}

func TestMergeDuplicateShardCopy(t *testing.T) {
	dir := t.TempDir()
	parts, _ := testPartials(t, dir)
	// A copied partial under a fresh name dodges the path dedup; the merge
	// layer must still reject the repeated shard index.
	data, err := os.ReadFile(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(dir, "copied-partial.json")
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	expectFailure(t, "more than once", parts[0], parts[1], copyPath)
}

func TestMergeRejectsCompleteArtifact(t *testing.T) {
	parts, mono := testPartials(t, t.TempDir())
	expectFailure(t, "not a shard partial", parts[0], parts[1], mono)
}

func TestMergeMissingShard(t *testing.T) {
	parts, _ := testPartials(t, t.TempDir())
	expectFailure(t, "want 2", parts[0])
}

func TestMergeTruncatedPartial(t *testing.T) {
	dir := t.TempDir()
	parts, _ := testPartials(t, dir)
	bad := filepath.Join(dir, "truncated-partial.json")
	if err := os.WriteFile(bad, []byte(`{"spec": {"n"`), 0o644); err != nil {
		t.Fatal(err)
	}
	expectFailure(t, "truncated", parts[0], bad)
}

// TestMergeHappyPathBytes keeps the harness honest: the success path must
// exit 0 and write the byte-identical monolithic artifact.
func TestMergeHappyPathBytes(t *testing.T) {
	dir := t.TempDir()
	parts, mono := testPartials(t, dir)
	out := filepath.Join(dir, "merged.json")
	code, _, stderr := call(t, cli.Merge, "", append([]string{"-out", out}, parts...)...)
	if code != 0 {
		t.Fatalf("merge exited %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "folded 2 shards") {
		t.Fatalf("success summary missing:\n%s", stderr)
	}
	want, err := os.ReadFile(mono)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("CLI merge not byte-identical to the monolithic artifact")
	}
}
