// Command phi-beam runs accelerated neutron-beam campaigns against the
// simulated Xeon Phi and prints the paper's Figure 2 (FIT + spatial
// patterns), Figure 3 (FIT reduction vs tolerance), and the machine-scale
// extrapolation table (§4.2). Campaigns run on the shared campaign engine
// (internal/engine): its workers hand each record straight to the -out
// JSONL log in O(workers) memory, SIGINT cancels cleanly leaving a valid
// partial log, and -progress reports completion like phi-bench does.
//
// Usage:
//
//	phi-beam [-runs 40000] [-seed N] [-workers N] [-device KNC3120A]
//	         [-no-ecc] [-out beam.jsonl] [-progress] [-extrapolate]
//	         [-monitor-jsonl mon.jsonl] [-monitor-temp 330] [-monitor-every 1000]
//
// With -monitor-jsonl a resident reliability monitor (internal/monitor)
// observes every record the -out log is handed and appends rolling
// FIT/MTBF snapshots — one JSONL line per -monitor-every records plus one
// per benchmark boundary; the final line equals the post-hoc fit exactly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"phirel/internal/beam"
	"phirel/internal/bench/all"
	"phirel/internal/cli"
	"phirel/internal/figures"
	"phirel/internal/phi"
	"phirel/internal/trace"
)

func main() {
	var (
		runs        = flag.Int("runs", 40000, "accelerated runs per benchmark")
		seed        = flag.Uint64("seed", 1701, "campaign seed")
		benchSeed   = flag.Uint64("bench-seed", 1, "workload input seed")
		workers     = flag.Int("workers", 8, "parallel shards")
		device      = flag.String("device", phi.DefaultDevice, "device model key")
		noECC       = flag.Bool("no-ecc", false, "disable SECDED (ablation A2)")
		out         = flag.String("out", "", "write per-run JSONL log here (streamed)")
		progress    = flag.Bool("progress", false, "report per-benchmark completion on stderr")
		extrapolate = flag.Bool("extrapolate", true, "print Trinity/exascale extrapolation")
	)
	var mon cli.MonitorFlags
	mon.Register(flag.CommandLine, "")
	flag.Parse()

	dev, err := phi.NewDevice(*device)
	if err != nil {
		fatal(err)
	}

	// The resident monitor observes the same records the JSONL log does;
	// one monitor spans the whole suite, so its rolling aggregate is
	// the machine-level estimate across benchmarks.
	sink, err := mon.Open()
	if err != nil {
		fatal(err)
	}

	// The log orders records by benchmark, then Seq, so its bytes do not
	// depend on -workers.
	var logw *trace.Ordered[beam.Record]
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		first := map[string]int{}
		for i, name := range all.BeamSuite {
			first[name] = i * *runs
		}
		logw = trace.NewOrdered(f, func(r beam.Record) int { return first[r.Benchmark] + r.Seq })
	}
	// die closes the partial log and monitor stream before exiting, so an
	// interrupted or failed campaign still leaves valid JSONL behind.
	die := func(err error) {
		if logw != nil && logw.Close() == nil && errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "phi-beam: interrupted; %d records flushed to %s\n",
				logw.Count(), *out)
		}
		if sink != nil {
			sink.Close()
		}
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	results := map[string]*beam.Result{}
	for bi, name := range all.BeamSuite {
		fmt.Fprintf(os.Stderr, "phi-beam: %d accelerated runs on %s...\n", *runs, name)
		cfg := beam.Config{
			Benchmark: name, Runs: *runs, Seed: *seed, BenchSeed: *benchSeed,
			Workers: *workers, Device: dev, DisableECC: *noECC,
		}
		if *progress {
			cfg.Progress = func(done, total int) {
				if done == total || done%(max(total/10, 1)) == 0 {
					fmt.Fprintf(os.Stderr, "phi-beam: %s %d/%d\n", name, done, total)
				}
			}
		}
		cfg.Observe = func(r beam.Record) {
			if logw != nil {
				logw.Observe(r)
			}
			if sink != nil {
				sink.Monitor.ObserveBeam(r)
			}
		}
		res, err := beam.RunContext(ctx, cfg)
		if err != nil {
			die(err)
		}
		results[name] = res
		// Per-benchmark boundary snapshot; the last benchmark's is the
		// final line Close writes.
		if sink != nil && bi < len(all.BeamSuite)-1 {
			sink.Mark()
		}
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "phi-beam: wrote %d monitor snapshots to %s\n",
			sink.Lines(), mon.Out)
	}

	fmt.Println(figures.Figure2(results))
	fmt.Println(figures.Figure3(results))
	if *extrapolate {
		fmt.Println(figures.Table2(results))
	}
	for _, name := range all.BeamSuite {
		r := results[name]
		fmt.Printf("%s: single-element SDC share %s (paper: <10%%)\n",
			name, r.SingleElementShare())
	}
	if logw != nil {
		if err := logw.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "phi-beam: wrote %d records to %s\n", logw.Count(), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phi-beam:", err)
	os.Exit(1)
}
