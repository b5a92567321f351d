package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"phirel/internal/distrib"
)

// FleetFlags is the supervision flag surface shared by cmd/phi-fleet and
// cmd/phi-serve: the per-attempt timeout, retry budget, backoff and
// concurrency cap of a fan-out. Defaults come from distrib.Defaults and
// assembly goes through distrib.Options.Validate, so the CLI surfaces and
// the scheduler cannot drift on what a legal fan-out config is.
type FleetFlags struct {
	Shards          int
	Timeout         time.Duration
	Retries         int
	Backoff         time.Duration
	MaxConcurrent   int
	CheckpointEvery int
	StealInterval   time.Duration
}

// Register installs the supervision flags on fs with distrib.Defaults as
// the flag defaults.
func (f *FleetFlags) Register(fs *flag.FlagSet) {
	d := distrib.Defaults()
	fs.IntVar(&f.Shards, "shards", d.Shards, "fan-out width K: how many shard workers per sweep")
	fs.DurationVar(&f.Timeout, "timeout", d.Timeout, "per-attempt shard timeout (0 = none)")
	fs.IntVar(&f.Retries, "retries", d.Retries, "relaunches per crashed/timed-out/corrupt-output shard beyond its first attempt")
	fs.DurationVar(&f.Backoff, "backoff", d.Backoff, "delay before a shard's first retry (doubles per retry)")
	fs.IntVar(&f.MaxConcurrent, "max-concurrent", d.MaxConcurrent, "max shards in flight at once (0 = no cap; one shared budget across jobs)")
	fs.IntVar(&f.CheckpointEvery, "checkpoint-every", d.CheckpointEvery, "shard checkpoint cadence in trials: relaunched shards resume instead of recomputing (0 = off)")
	fs.DurationVar(&f.StealInterval, "steal-interval", d.StealInterval, "straggler watchdog period: lagging shards are cancelled at a checkpoint and re-split (0 = off; needs -checkpoint-every)")
}

// Options assembles the validated distrib.Options the flags describe,
// completed with the launcher and working directory the caller resolved.
func (f *FleetFlags) Options(launcher distrib.Launcher, dir string) (distrib.Options, error) {
	opts := distrib.Options{
		Shards:          f.Shards,
		Launcher:        launcher,
		Dir:             dir,
		Timeout:         f.Timeout,
		Retries:         f.Retries,
		Backoff:         f.Backoff,
		MaxConcurrent:   f.MaxConcurrent,
		CheckpointEvery: f.CheckpointEvery,
		StealInterval:   f.StealInterval,
	}
	if err := opts.Validate(); err != nil {
		return distrib.Options{}, err
	}
	return opts, nil
}

// WorkerFlags is the worker-transport flag surface shared by cmd/phi-fleet
// and cmd/phi-serve: how shard workers are launched when the Kubernetes
// transport is not in play.
type WorkerFlags struct {
	WorkerCmd string
	SSHHosts  string
	SSHBin    string
}

// Register installs the worker-transport flags on fs.
func (f *WorkerFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.WorkerCmd, "worker-cmd", "", "local worker command, space-separated (default: phi-bench next to this executable, else from PATH)")
	fs.StringVar(&f.SSHHosts, "ssh", "", "comma-separated ssh hosts; shards round-robin over them instead of running locally")
	fs.StringVar(&f.SSHBin, "ssh-bin", "phi-bench", "phi-bench executable on the remote hosts")
}

// Launcher picks the worker transport the flags describe: ssh hosts when
// given, else a local subprocess of the explicit -worker-cmd, else a
// phi-bench discovered next to the calling executable or on PATH.
func (f *WorkerFlags) Launcher() distrib.Launcher {
	if f.SSHHosts != "" {
		return distrib.SSHLauncher{Hosts: strings.Split(f.SSHHosts, ","), Bin: f.SSHBin}
	}
	if f.WorkerCmd != "" {
		return distrib.ExecLauncher{Command: strings.Fields(f.WorkerCmd)}
	}
	if exe, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(exe), "phi-bench")
		if info, err := os.Stat(sibling); err == nil && !info.IsDir() {
			return distrib.ExecLauncher{Command: []string{sibling}}
		}
	}
	return distrib.ExecLauncher{Command: []string{"phi-bench"}}
}

// OpenInput resolves the "-" input convention every phirel tool follows
// (phi-bench -spec -, phi-fleet -spec -, phi-report -in -): "-" reads
// stdin, anything else opens the named file. The returned name labels the
// source in error messages; Close on the stdin form is a no-op so callers
// can defer it unconditionally.
func OpenInput(path string, stdin io.Reader) (r io.ReadCloser, name string, err error) {
	if path == "-" {
		return io.NopCloser(stdin), "stdin", nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, path, err
	}
	return f, path, nil
}
