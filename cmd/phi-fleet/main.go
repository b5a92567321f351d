// Command phi-fleet is the distributed fan-out driver for fleet sweeps: it
// splits a sweep K ways along the shard seam, launches K phi-bench shard
// workers (local subprocesses by default, remote hosts with -ssh, pods
// with -k8s),
// supervises them — per-attempt timeouts, bounded retry with backoff for
// crashed workers, aggregated JSONL progress — and folds the validated
// partials into one merged artifact, byte-identical to a monolithic
// phi-bench -sweep with the same spec. It is the one-command form of the
// shard/merge loop that closes the ROADMAP remote-execution item.
//
// Usage:
//
//	phi-fleet -shards 10 -n 10000 -beam-runs 10000 -beam-ecc-ablation -out sweep.json
//	phi-fleet -shards 3 -spec spec.json -worker-cmd "bin/phi-bench" -out sweep.json
//	phi-fleet -shards 8 -ssh node1,node2,node3 -remote-bin /opt/phirel/phi-bench -out sweep.json
//	phi-fleet -shards 16 -k8s -k8s-image ghcr.io/you/phirel:latest -k8s-namespace phirel -out sweep.json
//	phi-fleet -shards 8 -checkpoint-every 2000 -steal-interval 30s -out sweep.json
//
// The grid flags mirror phi-bench -sweep exactly, so swapping one command
// for the other changes nothing about the resulting artifact. At most one
// worker transport may be named: -k8s (one pod per shard attempt, via
// kubectl run), -ssh (remote hosts) or -worker-cmd (explicit local
// command); with none, a phi-bench binary next to the phi-fleet executable
// runs, else phi-bench from PATH.
//
// With -checkpoint-every N every worker periodically lands a valid partial
// covering its completed trial prefix, and a relaunched worker resumes
// from it instead of recomputing from trial zero. Adding -steal-interval
// arms the straggler watchdog: shards below half the fleet's median
// progress rate are cancelled at a checkpoint boundary and their remaining
// trials re-split two ways across idle slots. Both leave the merged artifact byte-identical
// to the uninterrupted run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"phirel/internal/cli"
	"phirel/internal/distrib"
)

func main() {
	var grid cli.SweepFlags
	grid.Register(flag.CommandLine, "")
	var fleetFlags cli.FleetFlags
	fleetFlags.Register(flag.CommandLine)
	var worker cli.WorkerFlags
	worker.Register(flag.CommandLine)
	var (
		specArg = flag.String("spec", "", "read the sweep spec from this fleet spec JSON file ('-' = stdin) instead of the grid flags")
		out     = flag.String("out", "sweep.json", "write the merged SweepResult JSON here ('-' = stdout)")
		dir     = flag.String("dir", "", "working directory for the spec file and shard partials (default: a temp dir, removed unless -keep-partials)")
		keep    = flag.Bool("keep-partials", false, "keep the shard partials and spec file after a successful merge")
		quiet   = flag.Bool("quiet", false, "suppress progress and supervisor lifecycle lines on stderr")
	)
	flag.Parse()

	spec, err := grid.LoadSweep(*specArg, os.Stdin, cli.WorkersSet(flag.CommandLine))
	if err != nil {
		fatal(err)
	}

	launch, err := worker.Launcher("phi-fleet")
	if err != nil {
		fatal(err)
	}

	workdir := *dir
	ownDir := workdir == ""
	if ownDir {
		if workdir, err = os.MkdirTemp("", "phi-fleet-*"); err != nil {
			fatal(err)
		}
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		fatal(err)
	}

	opts, err := fleetFlags.Options(launch, workdir)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		opts.Progress = func(p distrib.Progress) {
			fmt.Fprintf(os.Stderr, "phi-fleet: %d/%d cells done across %d shards\n", p.Done, p.Total, opts.Shards)
		}
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "phi-fleet: "+format+"\n", args...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	merged, err := distrib.Run(ctx, spec, opts)
	if err != nil {
		// Keep whatever landed: the partials and spec are the evidence a
		// failed fan-out leaves behind. Always say where they are — with
		// an auto-created temp dir and -quiet the path was never printed.
		fmt.Fprintf(os.Stderr, "phi-fleet: spec and any shard partials kept in %s\n", workdir)
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "phi-fleet: %d shards merged into %d injection + %d beam cells in %s\n",
		opts.Shards, len(merged.Cells), len(merged.BeamCells), time.Since(start).Round(time.Millisecond))

	if *out == "-" {
		err = merged.WriteJSON(os.Stdout)
	} else if err = merged.WriteFile(*out); err == nil {
		fmt.Fprintf(os.Stderr, "phi-fleet: wrote merged artifact to %s\n", *out)
	}
	if err != nil {
		// The campaign is done and the partials are valid — if the merged
		// artifact can't land (full disk, bad -out path), the partials are
		// the only copy of hours of compute, so say where they are and
		// leave them for a phi-merge rescue.
		fmt.Fprintf(os.Stderr, "phi-fleet: spec and shard partials kept in %s (refold with phi-merge)\n", workdir)
		fatal(err)
	}

	if *keep {
		fmt.Fprintf(os.Stderr, "phi-fleet: shard partials kept in %s\n", workdir)
	} else if ownDir {
		os.RemoveAll(workdir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phi-fleet:", err)
	os.Exit(1)
}
