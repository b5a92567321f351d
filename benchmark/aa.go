package main

import (
	"fmt"
	"io"
	"math"
)

// compare prints, for every workload and end-to-end metric, the two values,
// their relative difference and the bound, and returns an error if any pair
// differs by more than its bound or either run had a failed operation. It
// refuses to compare runs taken on different core counts, Go versions,
// scales or run lengths: their numbers do not measure the same thing.
func compare(w io.Writer, a, b *fileReport) error {
	ea, eb := a.Env, b.Env
	if ea.NumCPU != eb.NumCPU || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.GoVersion != eb.GoVersion ||
		ea.Scale != eb.Scale || ea.Seconds != eb.Seconds {
		return fmt.Errorf("refusing to compare runs from different environments: %+v and %+v", ea, eb)
	}
	fmt.Fprintf(w, "\nA/A: commit %s seed %d against commit %s seed %d\n", ea.Commit, ea.Seed, eb.Commit, eb.Seed)
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	misses := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[wl.Name][d.Name], b.EndToEnd[wl.Name][d.Name]
			diff := math.Abs(vb-va) / va
			mark := ""
			if !(diff <= d.Bound) {
				mark = "  MISS"
				misses++
			}
			fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f %7.1f%% %6.0f%%%s\n", wl.Name, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	switch {
	case a.Failed+b.Failed > 0:
		return fmt.Errorf("%d operations failed in the first run and %d in the second", a.Failed, b.Failed)
	case misses > 0:
		return fmt.Errorf("%d end-to-end metrics differ by more than their bound", misses)
	}
	return nil
}
