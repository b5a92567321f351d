package cli

import (
	"context"
	"fmt"
	"io"

	"phirel/internal/beam"
	"phirel/internal/bench/all"
	"phirel/internal/figures"
	"phirel/internal/phi"
)

// Beam is phi-beam: accelerated-beam campaigns over the beam suite,
// printed as the paper's Figure 2, Figure 3 and the extrapolation table,
// with -out streaming every run to a JSONL log and -monitor-jsonl feeding
// the same records to a resident monitor.
func Beam(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	const tool = "phi-beam"
	fs := Flags(tool, stderr)
	var (
		runs        = fs.Int("runs", 40000, "accelerated runs per benchmark")
		seed        = fs.Uint64("seed", 1701, "campaign seed")
		benchSeed   = fs.Uint64("bench-seed", 1, "workload input seed")
		workers     = fs.Int("workers", 8, "parallel shards")
		device      = fs.String("device", phi.DefaultDevice, "device model key")
		noECC       = fs.Bool("no-ecc", false, "disable SECDED (ablation A2)")
		out         = fs.String("out", "", "write per-run JSONL log here (streamed)")
		showProg    = fs.Bool("progress", false, "report per-benchmark completion on stderr")
		extrapolate = fs.Bool("extrapolate", true, "print Trinity/exascale extrapolation")
	)
	var mon MonitorFlags
	mon.Register(fs, "")
	return Run(fs, args, func() error {
		dev, err := phi.NewDevice(*device)
		if err != nil {
			return err
		}
		// The resident monitor observes the same records the JSONL log
		// does; one monitor spans the whole suite, so its rolling
		// aggregate is the machine-level estimate across benchmarks.
		sink, err := mon.Open()
		if err != nil {
			return err
		}
		logw, err := openRecordLog(*out, all.BeamSuite, *runs, func(r beam.Record) (string, int) { return r.Benchmark, r.Seq })
		if err != nil {
			return err
		}

		say := Logf(stderr, tool)
		results := map[string]*beam.Result{}
		for bi, name := range all.BeamSuite {
			say("%d accelerated runs on %s...", *runs, name)
			cfg := beam.Config{
				Benchmark: name, Runs: *runs, Seed: *seed, BenchSeed: *benchSeed,
				Workers: *workers, Device: dev, DisableECC: *noECC,
				Observe: func(r beam.Record) {
					if logw != nil {
						logw.Observe(r)
					}
					if sink != nil {
						sink.Monitor.ObserveBeam(r)
					}
				},
			}
			if *showProg {
				cfg.Progress = progress(stderr, tool, name)
			}
			res, err := beam.RunContext(ctx, cfg)
			if err != nil {
				// Both streams are closed, so a failed or interrupted
				// campaign still leaves valid JSONL behind.
				err = logw.abort(stderr, tool, err)
				if sink != nil {
					sink.Close()
				}
				return err
			}
			results[name] = res
			// Per-benchmark boundary snapshot; the last benchmark's is
			// the final line Close writes.
			if sink != nil && bi < len(all.BeamSuite)-1 {
				sink.Mark()
			}
		}
		if sink != nil {
			if err := sink.Close(); err != nil {
				return err
			}
			say("wrote %d monitor snapshots to %s", sink.Lines(), mon.Out)
		}

		fmt.Fprintln(stdout, figures.Figure2(results))
		fmt.Fprintln(stdout, figures.Figure3(results))
		if *extrapolate {
			fmt.Fprintln(stdout, figures.Table2(results))
		}
		for _, name := range all.BeamSuite {
			fmt.Fprintf(stdout, "%s: single-element SDC share %s (paper: <10%%)\n",
				name, results[name].SingleElementShare())
		}
		return logw.finish(stderr, tool)
	})
}
