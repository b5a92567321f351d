package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"phirel/internal/bench"
	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/report"
)

// Bench is phi-bench: golden runs of the workload suite, or with -sweep
// (or -spec) a fleet sweep — the shard worker every fan-out launches.
func Bench(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	const tool = "phi-bench"
	fs := Flags(tool, stderr)
	var grid SweepFlags
	grid.Register(fs, "sweep: ")
	var mon MonitorFlags
	mon.Register(fs, "sweep: ")
	reps := fs.Int("reps", 3, "timing repetitions")
	o := sweepOpts{grid: &grid, mon: &mon}
	sweep := fs.Bool("sweep", false, "run a fleet sweep instead of golden runs")
	fs.StringVar(&o.shard, "shard", "", "sweep: run shard k/K of every cell's trials (1-based, e.g. 2/3); merge partials with phi-merge")
	fs.StringVar(&o.plan, "plan", "", "sweep: run an explicit shard plan k/K:injOff+injN:beamOff+beamN (the partial-overlap protocol; excludes -shard)")
	fs.StringVar(&o.out, "out", "", "sweep: write SweepResult JSON here ('-' = stdout, suppressing tables)")
	fs.StringVar(&o.spec, "spec", "", "sweep: read the whole sweep spec from this fleet spec JSON file ('-' = stdin) instead of the grid flags; implies -sweep")
	fs.BoolVar(&o.progressJSONL, "progress-jsonl", false, "sweep: emit machine-readable JSONL progress events on stderr (the phi-fleet protocol)")
	fs.StringVar(&o.ckOut, "checkpoint-out", "", "sweep: land a valid shard-partial checkpoint here (tmp+rename) every -checkpoint-every trials; needs -shard or -plan")
	fs.IntVar(&o.ckEvery, "checkpoint-every", 0, "sweep: checkpoint cadence in trials (0 = no periodic checkpoints)")
	var prof ProfileFlags
	prof.Register(fs)
	return Run(fs, args, func() (err error) {
		if err := prof.Start(); err != nil {
			return err
		}
		defer func() {
			if perr := prof.Stop(); err == nil {
				err = perr
			}
		}()
		if *sweep || o.spec != "" {
			return runSweep(ctx, fs, stdin, stdout, stderr, o)
		}
		return goldenRuns(ctx, stdout, BenchNames(grid.Bench), grid.Seed, *reps)
	})
}

// goldenRuns times reps golden runs of each benchmark and prints the
// suite's table.
func goldenRuns(ctx context.Context, stdout io.Writer, names []string, seed uint64, reps int) error {
	t := report.NewTable("phirel workload suite (golden runs)",
		"Benchmark", "Class", "Output", "Ticks", "Windows", "Work units", "Wall/run")
	for _, name := range names {
		b, err := bench.New(name, seed)
		if err != nil {
			return err
		}
		runner, err := bench.NewRunner(b)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if res := runner.RunGolden(); res.Status != bench.Completed {
				return fmt.Errorf("%s: golden re-run %s", name, res.Status)
			}
		}
		per := time.Since(start) / time.Duration(reps)
		t.AddRow(name, b.Class().String(),
			runner.Golden.Shape.String(),
			fmt.Sprintf("%d", runner.TotalTicks),
			fmt.Sprintf("%d", b.Windows()),
			fmt.Sprintf("%d", runner.GoldenWork),
			per.Round(time.Microsecond).String(),
		)
	}
	fmt.Fprintln(stdout, t)
	return nil
}

// sweepOpts are phi-bench's sweep-mode flags.
type sweepOpts struct {
	grid          *SweepFlags
	mon           *MonitorFlags
	out           string
	shard         string
	plan          string
	spec          string
	progressJSONL bool
	ckOut         string
	ckEvery       int
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

func runSweep(ctx context.Context, fs *flag.FlagSet, stdin io.Reader, stdout, stderr io.Writer, o sweepOpts) error {
	say := Logf(stderr, fs.Name())
	s, err := o.grid.LoadSweep(o.spec, stdin, WorkersSet(fs))
	if err != nil {
		return err
	}

	var plan *fleet.ShardPlan
	switch {
	case o.shard != "" && o.plan != "":
		return errors.New("-shard and -plan are mutually exclusive")
	case o.shard != "":
		k, count, err := parseShard(o.shard)
		if err != nil {
			return err
		}
		p, err := s.Plan(k, count)
		if err != nil {
			return err
		}
		plan = &p
	case o.plan != "":
		p, err := distrib.ParsePlanArg(o.plan)
		if err != nil {
			return err
		}
		plan = &p
	}
	k, count := 0, 1
	if plan != nil {
		k, count = plan.Index, plan.Count
	}
	if o.progressJSONL {
		enc := json.NewEncoder(stderr)
		s.Progress = func(done, total int) {
			enc.Encode(distrib.Event{
				Event: distrib.EventName, Shard: k, Count: count, Done: done, Total: total,
			})
		}
	} else {
		s.Progress = func(done, total int) { say("sweep %d/%d cells", done, total) }
	}

	if plan == nil && o.ckOut != "" {
		return errors.New("-checkpoint-out needs -shard or -plan: a monolithic run has no shard plan to checkpoint")
	}

	// The resident monitor taps the sweep's record streams through the
	// fleet observer hooks — execution detail, so a monitored artifact
	// stays byte-identical to an unmonitored one.
	sink, err := o.mon.Open()
	if err != nil {
		return err
	}
	if sink != nil {
		s.ObserveInjection = sink.ObserveInjection
		s.ObserveBeam = sink.ObserveBeam
	}

	start := time.Now()
	var res *fleet.SweepResult
	if plan == nil {
		res, err = s.Run(ctx)
	} else {
		res, err = s.RunPlanCheckpointed(ctx, *plan, fleet.Checkpoint{
			Out:   o.ckOut,
			Every: o.ckEvery,
			Logf:  say,
		})
	}
	if err != nil {
		if sink != nil {
			sink.Close()
		}
		return err
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		say("wrote %d monitor snapshots to %s", sink.Count(), o.mon.Out)
	}
	label := ""
	if res.Shard != nil {
		label = fmt.Sprintf(" (shard %s)", res.Shard)
	}
	say("%d injection + %d beam cells%s in %s",
		len(res.Cells), len(res.BeamCells), label, time.Since(start).Round(time.Millisecond))

	if o.out != "-" {
		printSweepTables(stdout, res)
	}
	switch o.out {
	case "":
	case "-":
		return res.WriteJSON(stdout)
	default:
		if err := res.WriteFile(o.out); err != nil {
			return err
		}
		say("wrote sweep result to %s", o.out)
	}
	return nil
}

func printSweepTables(stdout io.Writer, res *fleet.SweepResult) {
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
		fmt.Fprintln(stdout, t)
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
		fmt.Fprintln(stdout, t)
	}
}
