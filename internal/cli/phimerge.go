package cli

import (
	"context"
	"errors"
	"fmt"
	"io"

	"phirel/internal/fleet"
)

// Merge is phi-merge: shard partials, named by path or glob, folded into
// the one artifact a monolithic sweep of their spec writes.
func Merge(_ context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := Flags("phi-merge", stderr)
	out := fs.String("out", "", "write the merged SweepResult JSON here (default: stdout)")
	return Run(fs, args, func() error {
		if fs.NArg() == 0 {
			return errors.New("no shard files given; usage: phi-merge [-out sweep.json] sweep-shard-*.json")
		}
		paths, err := fleet.DiscoverPartials(fs.Args()...)
		if err != nil {
			return err
		}
		merged, err := fleet.MergeFiles(paths...)
		if err != nil {
			return err
		}
		if *out == "" {
			err = merged.WriteJSON(stdout)
		} else {
			err = merged.WriteFile(*out)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "phi-merge: folded %d shards into %d injection + %d beam cells\n",
			len(paths), len(merged.Cells), len(merged.BeamCells))
		return nil
	})
}
