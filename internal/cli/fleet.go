package cli

import (
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
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
	fs.DurationVar(&f.Backoff, "backoff", d.Backoff, "delay before a shard's first retry (doubles per retry, capped at 1m; 0 means 500ms)")
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
// and cmd/phi-serve: how shard workers are launched — a local subprocess,
// a session on an ssh host, or a Kubernetes pod started with kubectl run.
type WorkerFlags struct {
	WorkerCmd string
	SSHHosts  string
	K8s       bool
	Namespace string
	Image     string
	Kubectl   string
	RemoteBin string
}

// Register installs the worker-transport flags on fs.
func (f *WorkerFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.WorkerCmd, "worker-cmd", "", "local worker command, space-separated (default: phi-bench next to this executable, else from PATH)")
	fs.StringVar(&f.SSHHosts, "ssh", "", "comma-separated ssh hosts; shards round-robin over them instead of running locally")
	fs.BoolVar(&f.K8s, "k8s", false, "run each shard attempt in its own Kubernetes pod via kubectl run (requires -k8s-image)")
	fs.StringVar(&f.Namespace, "k8s-namespace", "default", "namespace the -k8s worker pods run in")
	fs.StringVar(&f.Image, "k8s-image", "", "container image holding phi-bench for -k8s pods")
	fs.StringVar(&f.Kubectl, "kubectl", "kubectl", "kubectl command for -k8s, space-separated (room for --context etc.)")
	fs.StringVar(&f.RemoteBin, "remote-bin", "phi-bench", "phi-bench executable on the -ssh hosts or in the -k8s-image")
}

// Launcher builds the worker transport the flags name: -k8s pods, -ssh
// hosts, the explicit -worker-cmd, else a phi-bench next to the calling
// executable or on PATH. A flag set naming two transports is an error, as
// is an empty -ssh host. Pod names start with runName plus a random
// suffix, so concurrent fan-outs sharing a namespace never collide.
func (f *WorkerFlags) Launcher(runName string) (distrib.Launcher, error) {
	named := 0
	for _, set := range []bool{f.K8s, f.SSHHosts != "", f.WorkerCmd != ""} {
		if set {
			named++
		}
	}
	if named > 1 {
		return nil, errors.New("cli: -k8s, -ssh and -worker-cmd each pick the worker transport; give at most one")
	}
	switch {
	case f.K8s:
		if f.Image == "" {
			return nil, errors.New("cli: -k8s needs -k8s-image (the container image holding phi-bench)")
		}
		var salt [3]byte
		rand.Read(salt[:])
		return distrib.ExecLauncher{
			Command: []string{f.RemoteBin},
			Via: distrib.Kubectl{
				Command:   strings.Fields(f.Kubectl),
				Namespace: f.Namespace,
				Image:     f.Image,
				RunName:   fmt.Sprintf("%s-%x", runName, salt),
			},
		}, nil
	case f.SSHHosts != "":
		hosts := strings.Split(f.SSHHosts, ",")
		for i, h := range hosts {
			if hosts[i] = strings.TrimSpace(h); hosts[i] == "" {
				return nil, fmt.Errorf("cli: -ssh %q names an empty host", f.SSHHosts)
			}
		}
		return distrib.ExecLauncher{Command: []string{f.RemoteBin}, Via: distrib.SSH{Hosts: hosts}}, nil
	case f.WorkerCmd != "":
		return distrib.ExecLauncher{Command: strings.Fields(f.WorkerCmd)}, nil
	}
	if exe, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(exe), "phi-bench")
		if info, err := os.Stat(sibling); err == nil && !info.IsDir() {
			return distrib.ExecLauncher{Command: []string{sibling}}, nil
		}
	}
	return distrib.ExecLauncher{Command: []string{"phi-bench"}}, nil
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
