package cli

import (
	"context"
	"io"
	"os"
	"time"

	"phirel/internal/distrib"
)

// Fleet is phi-fleet: a sweep fanned out K ways to supervised phi-bench
// shard workers, folded into one artifact byte-identical to phi-bench
// -sweep with the same grid flags.
func Fleet(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	const tool = "phi-fleet"
	fs := Flags(tool, stderr)
	var grid SweepFlags
	grid.Register(fs, "")
	var fleetFlags FleetFlags
	fleetFlags.Register(fs)
	var worker WorkerFlags
	worker.Register(fs)
	var (
		specArg = fs.String("spec", "", "read the sweep spec from this fleet spec JSON file ('-' = stdin) instead of the grid flags")
		out     = fs.String("out", "sweep.json", "write the merged SweepResult JSON here ('-' = stdout)")
		dir     = fs.String("dir", "", "working directory for the spec file and shard partials (default: a temp dir, removed unless -keep-partials)")
		keep    = fs.Bool("keep-partials", false, "keep the shard partials and spec file after a successful merge")
		quiet   = fs.Bool("quiet", false, "suppress progress and supervisor lifecycle lines on stderr")
	)
	return Run(fs, args, func() error {
		say := Logf(stderr, tool)
		spec, err := grid.LoadSweep(*specArg, stdin, WorkersSet(fs))
		if err != nil {
			return err
		}
		launch, err := worker.Launcher(tool)
		if err != nil {
			return err
		}
		workdir, ownDir, err := WorkDir(*dir, tool)
		if err != nil {
			return err
		}
		opts, err := fleetFlags.Options(launch, workdir)
		if err != nil {
			return err
		}
		if !*quiet {
			opts.Progress = func(p distrib.Progress) {
				say("%d/%d cells done across %d shards", p.Done, p.Total, opts.Shards)
			}
			opts.Logf = say
		}

		start := time.Now()
		merged, err := distrib.Run(ctx, spec, opts)
		if err != nil {
			// Keep whatever landed: the partials and spec are the
			// evidence a failed fan-out leaves behind. Always say where
			// they are — with an auto-created temp dir and -quiet the
			// path was never printed.
			say("spec and any shard partials kept in %s", workdir)
			return err
		}
		say("%d shards merged into %d injection + %d beam cells in %s",
			opts.Shards, len(merged.Cells), len(merged.BeamCells), time.Since(start).Round(time.Millisecond))

		if *out == "-" {
			err = merged.WriteJSON(stdout)
		} else if err = merged.WriteFile(*out); err == nil {
			say("wrote merged artifact to %s", *out)
		}
		if err != nil {
			// The campaign is done and the partials are valid — if the
			// merged artifact can't land (full disk, bad -out path), the
			// partials are the only copy of hours of compute, so say
			// where they are and leave them for a phi-merge rescue.
			say("spec and shard partials kept in %s (refold with phi-merge)", workdir)
			return err
		}

		if *keep {
			say("shard partials kept in %s", workdir)
		} else if ownDir {
			os.RemoveAll(workdir)
		}
		return nil
	})
}
