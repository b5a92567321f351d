// Package cli is the command line of every phirel tool. Each tool is a
// Func (CarolFI, Beam, Bench, Fleet, Merge, Report, Serve) over its
// arguments and streams, so its tests call it directly, and each cmd/ main
// is one Main call. The flag surfaces the tools share live here once:
// SweepFlags, the grid phi-bench -sweep and phi-fleet both take (the same
// flags must give byte-identical artifacts), FleetFlags and WorkerFlags
// (fan-out supervision and transport, for phi-fleet and phi-serve),
// MonitorFlags and ProfileFlags.
package cli

import (
	"flag"
	"io"
	"strings"

	"phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/state"
)

// SweepFlags holds the parsed grid-flag values.
type SweepFlags struct {
	Bench        string
	Seed         uint64
	N            int
	Models       string
	Policies     string
	CampaignSeed uint64
	Workers      int
	BeamRuns     int
	BeamDevices  string
	BeamECC      bool
}

// Register installs the shared grid flags on fs. prefix is prepended to
// the help text of the sweep-grid flags — phi-bench passes "sweep: "
// because it also has non-sweep modes; phi-fleet passes "".
func (f *SweepFlags) Register(fs *flag.FlagSet, prefix string) {
	fs.StringVar(&f.Bench, "bench", "all", "benchmark name or 'all'")
	fs.Uint64Var(&f.Seed, "seed", 1, "workload input seed")
	fs.IntVar(&f.N, "n", 600, prefix+"injections per grid cell")
	fs.StringVar(&f.Models, "models", "", prefix+"comma-separated fault models (default: all four)")
	fs.StringVar(&f.Policies, "policies", "by-frame", prefix+"comma-separated site-selection policies")
	fs.Uint64Var(&f.CampaignSeed, "campaign-seed", 1701, prefix+"master seed (cell seeds derive from it)")
	fs.IntVar(&f.Workers, "workers", 8, prefix+"pool size: cells run concurrently (per worker process when sharded)")
	fs.IntVar(&f.BeamRuns, "beam-runs", 0, prefix+"accelerated runs per beam cell (0 = no beam cells)")
	fs.StringVar(&f.BeamDevices, "beam-devices", "", prefix+"comma-separated phi device keys (default: KNC3120A)")
	fs.BoolVar(&f.BeamECC, "beam-ecc-ablation", false, prefix+"add a SECDED-disabled arm per beam cell (A2)")
}

// WorkersSet reports whether -workers was explicitly passed on fs — the
// signal that the caller wants the per-machine pool-size override even in
// spec mode. Call after fs has been parsed.
func WorkersSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			set = true
		}
	})
	return set
}

// LoadSweep resolves the sweep a command runs — the one definition of the
// spec-versus-flags rule both phi-bench and phi-fleet follow. With a
// specPath the spec file is the whole truth ("-" reads stdin), except
// -workers when explicitly set (WorkersSet), which stays a per-machine
// execution detail; otherwise the grid flags build the sweep.
func (f *SweepFlags) LoadSweep(specPath string, stdin io.Reader, workersSet bool) (fleet.Sweep, error) {
	if specPath == "" {
		return f.Sweep()
	}
	var s fleet.Sweep
	var err error
	if specPath == "-" {
		s, err = fleet.ReadSpec(stdin)
	} else {
		s, err = fleet.ReadSpecFile(specPath)
	}
	if err != nil {
		return fleet.Sweep{}, err
	}
	if workersSet {
		s.Workers = f.Workers
	}
	return s, nil
}

// Names resolves -bench into the benchmark list.
func (f *SweepFlags) Names() []string {
	if f.Bench == "all" {
		return all.Suite
	}
	return []string{f.Bench}
}

// Sweep assembles the fleet.Sweep the grid flags describe — the one
// definition of the flag-to-spec wiring, including the BeamSuite default
// (the paper's beam benchmarks, §3.2) when beam cells are enabled.
func (f *SweepFlags) Sweep() (fleet.Sweep, error) {
	models, err := fault.ParseModels(f.Models)
	if err != nil {
		return fleet.Sweep{}, err
	}
	pols, err := state.ParsePolicies(f.Policies)
	if err != nil {
		return fleet.Sweep{}, err
	}
	var devices []string
	if f.BeamDevices != "" {
		devices = strings.Split(f.BeamDevices, ",")
	}
	s := fleet.Sweep{
		Benchmarks:      f.Names(),
		Models:          models,
		Policies:        pols,
		N:               f.N,
		Seed:            f.CampaignSeed,
		BenchSeed:       f.Seed,
		Workers:         f.Workers,
		BeamRuns:        f.BeamRuns,
		BeamDevices:     devices,
		BeamECCAblation: f.BeamECC,
	}
	if f.BeamRuns > 0 {
		s.BeamBenchmarks = all.BeamSuite
	}
	return s, nil
}
