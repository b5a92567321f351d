package cli

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/state"
)

// parse registers the shared flags on a fresh FlagSet and parses args —
// exactly what both commands do at startup.
func parse(t *testing.T, args ...string) *SweepFlags {
	t.Helper()
	var f SweepFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestDefaultsBuildTheCanonicalSweep(t *testing.T) {
	f := parse(t)
	s, err := f.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Benchmarks, all.Suite) {
		t.Fatalf("default benchmarks %v, want the full suite", s.Benchmarks)
	}
	if s.N != 600 || s.Seed != 1701 || s.BenchSeed != 1 || s.Workers != 8 {
		t.Fatalf("default scalars off: %+v", s)
	}
	if s.Models != nil {
		t.Fatalf("empty -models must stay nil (normalized() fills all four): %v", s.Models)
	}
	if !reflect.DeepEqual(s.Policies, []state.Policy{state.ByFrameThenVariable}) {
		t.Fatalf("default policies %v", s.Policies)
	}
	if s.BeamRuns != 0 || s.BeamBenchmarks != nil {
		t.Fatalf("beam cells enabled by default: %+v", s)
	}
}

func TestGridFlagsWireThrough(t *testing.T) {
	f := parse(t, "-bench", "DGEMM", "-n", "40", "-models", "Single,Zero",
		"-beam-runs", "200", "-beam-ecc-ablation", "-beam-devices", "KNC3120A,KNC5110P")
	s, err := f.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Benchmarks, []string{"DGEMM"}) {
		t.Fatalf("benchmarks %v", s.Benchmarks)
	}
	if !reflect.DeepEqual(s.Models, []fault.Model{fault.Single, fault.Zero}) {
		t.Fatalf("models %v", s.Models)
	}
	// Beam cells enabled: the paper's beam suite is wired in regardless of
	// -bench, exactly as phi-bench -sweep has always done.
	if !reflect.DeepEqual(s.BeamBenchmarks, all.BeamSuite) {
		t.Fatalf("beam benchmarks %v, want the beam suite", s.BeamBenchmarks)
	}
	if !s.BeamECCAblation || len(s.BeamDevices) != 2 {
		t.Fatalf("beam arm flags lost: %+v", s)
	}
}

func TestLoadSweepSpecAndWorkersOverride(t *testing.T) {
	var f SweepFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs, "")
	if err := fs.Parse([]string{"-workers", "16"}); err != nil {
		t.Fatal(err)
	}
	if !WorkersSet(fs) {
		t.Fatal("explicit -workers not detected")
	}
	spec := `{"benchmarks":["DGEMM"],"n":5,"seed":7,"benchSeed":1,"workers":2}`
	s, err := f.LoadSweep("-", strings.NewReader(spec), WorkersSet(fs))
	if err != nil {
		t.Fatal(err)
	}
	// The spec is the whole truth except the per-machine pool size.
	if s.N != 5 || s.Seed != 7 || !reflect.DeepEqual(s.Benchmarks, []string{"DGEMM"}) {
		t.Fatalf("spec fields lost: %+v", s)
	}
	if s.Workers != 16 {
		t.Fatalf("explicit -workers not honoured over the spec: %d", s.Workers)
	}
	// Without the explicit flag, the spec's pool size stands.
	s, err = f.LoadSweep("-", strings.NewReader(spec), false)
	if err != nil || s.Workers != 2 {
		t.Fatalf("spec workers overridden without an explicit flag: %d, %v", s.Workers, err)
	}
	// No spec: the grid flags build the sweep.
	s, err = f.LoadSweep("", nil, true)
	if err != nil || s.Workers != 16 || !reflect.DeepEqual(s.Benchmarks, all.Suite) {
		t.Fatalf("flag-built sweep off: %+v, %v", s, err)
	}
}

func TestBadGridFlagsError(t *testing.T) {
	if _, err := parse(t, "-models", "NotAModel").Sweep(); err == nil {
		t.Fatal("accepted an unknown fault model")
	}
	if _, err := parse(t, "-policies", "by-vibes").Sweep(); err == nil {
		t.Fatal("accepted an unknown policy")
	}
}
