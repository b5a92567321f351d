// Command phi-bench runs the ported workloads standalone (golden runs) and
// reports their shapes, tick counts, work units and wall times — a quick
// way to inspect the benchmark suite itself. With -sweep it instead drives
// the fleet orchestrator: the full benchmarks × fault-models × policy
// injection grid, plus — with -beam-runs — accelerated-beam cells
// (benchmark × device × ECC arm), all on one shared worker pool, with the
// SweepResult optionally exported as a JSON artifact for cmd/phi-report
// and CI.
//
// Usage:
//
//	phi-bench [-bench all] [-seed 1] [-reps 3]
//	phi-bench -sweep [-n 600] [-models Single,Double,Random,Zero]
//	          [-policies by-frame] [-campaign-seed 1701] [-workers 8]
//	          [-beam-runs 6000] [-beam-devices KNC3120A] [-beam-ecc-ablation]
//	          [-shard k/K] [-out sweep.json] [-monitor-jsonl mon.jsonl]
//	phi-bench -spec spec.json [-shard k/K | -plan k/K:injOff+injN:beamOff+beamN]
//	          [-progress-jsonl] [-out -]
//	          [-checkpoint-out ck.json -checkpoint-every 1000] [-resume-from ck.json]
//
// With -plan the sweep runs exactly the given trial ranges of every cell
// (internal/distrib.FormatPlanArg) — the one form the fan-out supervisor
// sends its workers, balanced shards and the partial-overlap cache's fresh
// ranges alike. -shard k/K (1-based) is the operator's sugar for the
// balanced plan, the k-th of K deterministic slices of every cell's trials;
// the K partials fold back into the monolithic artifact, byte for byte,
// with cmd/phi-merge.
//
// With -spec the whole sweep grid comes from a fleet spec JSON file ("-"
// reads stdin) instead of the grid flags — the shard-worker protocol
// cmd/phi-fleet drives. -progress-jsonl switches stderr progress to
// machine-readable JSONL events (one internal/distrib.Event per line), and
// -out - streams the artifact to stdout (suppressing the per-cell tables),
// so a remote worker (over ssh, or in a pod started by kubectl run) needs
// no filesystem handshake at all.
//
// -checkpoint-out with -checkpoint-every N makes a shard worker elastic: a
// valid shard-partial artifact covering the contiguous trial prefix
// completed so far lands (atomically) every N trials, and -resume-from
// picks a prior attempt's checkpoint back up, computing only the remaining
// ranges. Both require -shard or -plan — a monolithic run has no shard plan
// to checkpoint — and neither changes the final artifact's bytes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/cli"
	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/report"
)

func main() {
	var grid cli.SweepFlags
	grid.Register(flag.CommandLine, "sweep: ")
	var mon cli.MonitorFlags
	mon.Register(flag.CommandLine, "sweep: ")
	var (
		reps = flag.Int("reps", 3, "timing repetitions")

		sweep     = flag.Bool("sweep", false, "run a fleet sweep instead of golden runs")
		shardArg  = flag.String("shard", "", "sweep: run shard k/K of every cell's trials (1-based, e.g. 2/3); merge partials with phi-merge")
		planArg   = flag.String("plan", "", "sweep: run an explicit shard plan k/K:injOff+injN:beamOff+beamN (the partial-overlap protocol; excludes -shard)")
		out       = flag.String("out", "", "sweep: write SweepResult JSON here ('-' = stdout, suppressing tables)")
		specArg   = flag.String("spec", "", "sweep: read the whole sweep spec from this fleet spec JSON file ('-' = stdin) instead of the grid flags; implies -sweep")
		progJSONL = flag.Bool("progress-jsonl", false, "sweep: emit machine-readable JSONL progress events on stderr (the phi-fleet protocol)")

		ckOut    = flag.String("checkpoint-out", "", "sweep: land a valid shard-partial checkpoint here (tmp+rename) every -checkpoint-every trials; needs -shard or -plan")
		ckEvery  = flag.Int("checkpoint-every", 0, "sweep: checkpoint cadence in trials (0 = no periodic checkpoints)")
		ckResume = flag.String("resume-from", "", "sweep: resume from this checkpoint artifact, computing only the remaining ranges; an unusable checkpoint degrades to the full plan")
	)
	var prof cli.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatal(err)
		}
	}()

	if *sweep || *specArg != "" {
		runSweep(sweepOpts{
			grid: &grid, mon: &mon, out: *out,
			shard: *shardArg, plan: *planArg, spec: *specArg, progressJSONL: *progJSONL,
			ckOut: *ckOut, ckEvery: *ckEvery, ckResume: *ckResume,
		})
		return
	}

	t := report.NewTable("phirel workload suite (golden runs)",
		"Benchmark", "Class", "Output", "Ticks", "Windows", "Work units", "Wall/run")
	for _, name := range grid.Names() {
		b, err := bench.New(name, grid.Seed)
		if err != nil {
			fatal(err)
		}
		runner, err := bench.NewRunner(b)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		for i := 0; i < *reps; i++ {
			if res := runner.RunGolden(); res.Status != bench.Completed {
				fatal(fmt.Errorf("%s: golden re-run %s", name, res.Status))
			}
		}
		per := time.Since(start) / time.Duration(*reps)
		t.AddRow(name, b.Class().String(),
			runner.Golden.Shape.String(),
			fmt.Sprintf("%d", runner.TotalTicks),
			fmt.Sprintf("%d", b.Windows()),
			fmt.Sprintf("%d", runner.GoldenWork),
			per.Round(time.Microsecond).String(),
		)
	}
	fmt.Println(t)
}

type sweepOpts struct {
	grid          *cli.SweepFlags
	mon           *cli.MonitorFlags
	out           string
	shard         string
	plan          string
	spec          string
	progressJSONL bool
	ckOut         string
	ckEvery       int
	ckResume      string
}

// parseShard parses the 1-based "k/K" shard syntax into a 0-based index
// and a shard count. The round-trip comparison rejects trailing garbage
// ("2/30x", "1/3/9"), which Sscanf alone would silently accept.
func parseShard(s string) (k, count int, err error) {
	if _, serr := fmt.Sscanf(s, "%d/%d", &k, &count); serr != nil || fmt.Sprintf("%d/%d", k, count) != s {
		return 0, 0, fmt.Errorf("bad -shard %q: want k/K, e.g. 2/3", s)
	}
	if count < 1 || k < 1 || k > count {
		return 0, 0, fmt.Errorf("bad -shard %q: k must be in 1..K", s)
	}
	return k - 1, count, nil
}

func runSweep(o sweepOpts) {
	s, err := o.grid.LoadSweep(o.spec, os.Stdin, cli.WorkersSet(flag.CommandLine))
	if err != nil {
		fatal(err)
	}

	// The resident monitor taps the sweep's record streams through the
	// fleet observer hooks — execution detail, so a monitored artifact
	// stays byte-identical to an unmonitored one.
	sink, err := o.mon.Open()
	if err != nil {
		fatal(err)
	}
	if sink != nil {
		s.ObserveInjection = sink.Monitor.ObserveInjection
		s.ObserveBeam = sink.Monitor.ObserveBeam
	}

	var plan *fleet.ShardPlan
	switch {
	case o.shard != "" && o.plan != "":
		fatal(fmt.Errorf("-shard and -plan are mutually exclusive"))
	case o.shard != "":
		k, count, err := parseShard(o.shard)
		if err != nil {
			fatal(err)
		}
		p, err := s.Plan(k, count)
		if err != nil {
			fatal(err)
		}
		plan = &p
	case o.plan != "":
		p, err := distrib.ParsePlanArg(o.plan)
		if err != nil {
			fatal(err)
		}
		plan = &p
	}
	k, count := 0, 1
	if plan != nil {
		k, count = plan.Index, plan.Count
	}
	if o.progressJSONL {
		enc := json.NewEncoder(os.Stderr)
		s.Progress = func(done, total int) {
			enc.Encode(distrib.Event{
				Event: distrib.EventName, Shard: k, Count: count, Done: done, Total: total,
			})
		}
	} else {
		s.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "phi-bench: sweep %d/%d cells\n", done, total)
		}
	}

	if plan == nil && (o.ckOut != "" || o.ckResume != "") {
		fatal(fmt.Errorf("-checkpoint-out and -resume-from need -shard or -plan: a monolithic run has no shard plan to checkpoint"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	var res *fleet.SweepResult
	if plan == nil {
		res, err = s.Run(ctx)
	} else {
		res, err = s.RunPlanCheckpointed(ctx, *plan, fleet.Checkpoint{
			Out:    o.ckOut,
			Every:  o.ckEvery,
			Resume: o.ckResume,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "phi-bench: "+format+"\n", args...)
			},
		})
	}
	if err != nil {
		fatal(err)
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "phi-bench: wrote %d monitor snapshots to %s\n",
			sink.Lines(), o.mon.Out)
	}
	label := ""
	if res.Shard != nil {
		label = fmt.Sprintf(" (shard %s)", res.Shard)
	}
	fmt.Fprintf(os.Stderr, "phi-bench: %d injection + %d beam cells%s in %s\n",
		len(res.Cells), len(res.BeamCells), label, time.Since(start).Round(time.Millisecond))

	if o.out != "-" {
		printSweepTables(res)
	}
	switch o.out {
	case "":
	case "-":
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		if err := res.WriteFile(o.out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "phi-bench: wrote sweep result to %s\n", o.out)
	}
}

func printSweepTables(res *fleet.SweepResult) {
	if len(res.Cells) > 0 {
		t := report.NewTable("phirel fleet sweep (per-cell outcomes)",
			"Benchmark", "Model", "Policy", "Masked %", "SDC %", "DUE %", "Fired %", "N")
		for _, c := range res.Cells {
			if c.Result == nil { // empty shard slice of this cell
				continue
			}
			o := c.Result.Outcomes
			t.AddRow(c.Benchmark, c.Model.String(), c.Policy.String(),
				fmt.Sprintf("%.1f", o.MaskedShare().Percent()),
				fmt.Sprintf("%.1f", o.SDCPVF().Percent()),
				fmt.Sprintf("%.1f", o.DUEPVF().Percent()),
				fmt.Sprintf("%.1f", c.Result.FiredShare.Percent()),
				fmt.Sprintf("%d", o.Total()))
		}
		fmt.Println(t)
	}
	if len(res.BeamCells) > 0 {
		t := report.NewTable("phirel fleet sweep (per-beam-cell outcomes)",
			"Benchmark", "Device", "ECC", "SDC FIT", "DUE FIT", "Corrected", "Runs")
		for _, c := range res.BeamCells {
			if c.Result == nil { // empty shard slice of this cell
				continue
			}
			ecc := "on"
			if c.DisableECC {
				ecc = "off"
			}
			t.AddRow(c.Benchmark, c.Device, ecc,
				fmt.Sprintf("%.1f", c.Result.SDCFIT().FIT),
				fmt.Sprintf("%.1f", c.Result.DUEFIT().FIT),
				fmt.Sprintf("%d", c.Result.CorrectedByECC),
				fmt.Sprintf("%d", c.Result.Runs))
		}
		fmt.Println(t)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phi-bench:", err)
	os.Exit(1)
}
