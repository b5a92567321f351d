// Command phi-perf runs the fixed-seed performance suite (internal/perf)
// and either records the result or gates against a committed baseline.
//
// Record a run:
//
//	phi-perf -out run.json -label baseline
//
// Gate against a committed BENCH_<n>.json (exit 1 on statistically
// significant regression beyond the margin):
//
//	phi-perf -baseline BENCH_13.json -check -samples 6 -sample-time 60ms
//
// Assemble the committed artifact from recorded runs. The baseline is
// recorded the way the gate measures, several fresh processes at the gate's
// sample settings, and their samples are pooled per case (make
// perf-baseline):
//
//	phi-perf -assemble BENCH_13.json -issue 13 -before before.json -after rec-1.json,rec-2.json,rec-3.json
//
// Measure the sweep service path instead (cold submission vs exact cache
// hit vs partial-overlap hit, through the real HTTP handler with
// in-process workers):
//
//	phi-perf -serve -samples 10 -serve-n 24 -out serve-run.json
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"phirel/internal/perf"
)

func main() {
	var (
		out        = flag.String("out", "", "write the measured run as JSON to this file")
		label      = flag.String("label", "", "label recorded in the run")
		samples    = flag.Int("samples", 10, "samples per case")
		sampleTime = flag.Duration("sample-time", 100*time.Millisecond, "minimum wall time per sample")
		filter     = flag.String("filter", "", "regexp restricting which cases run")
		baseline   = flag.String("baseline", "", "BENCH_<n>.json (or bare run) to compare against")
		check      = flag.Bool("check", false, "exit 1 when the comparison finds a regression")
		alpha      = flag.Float64("alpha", 0.05, "significance level for the Mann-Whitney U test")
		margin     = flag.Float64("margin", 0.10, "median slowdown tolerated before a significant delta is a regression")
		serveMode  = flag.Bool("serve", false, "measure the sweep service path (cold vs exact cache hit vs partial-overlap POST latency) instead of the hot-path suite")
		serveN     = flag.Int("serve-n", 24, "serve: per-cell trial count of the cold sweep; the partial request doubles it")
		assemble   = flag.String("assemble", "", "write a BENCH file assembled from -before/-after instead of measuring")
		beforePath = flag.String("before", "", "pre-optimization run JSON for -assemble")
		afterPath  = flag.String("after", "", "baseline run JSON for -assemble; a comma-separated list pools the recordings' samples per case")
		issue      = flag.Int("issue", 0, "issue number recorded by -assemble")
		notes      = flag.String("notes", "", "notes recorded by -assemble")
	)
	flag.Parse()
	if *serveMode {
		if err := runServe(*out, *label, *samples, *serveN); err != nil {
			fmt.Fprintln(os.Stderr, "phi-perf:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, *label, *samples, *sampleTime, *filter, *baseline, *check,
		*alpha, *margin, *assemble, *beforePath, *afterPath, *issue, *notes); err != nil {
		fmt.Fprintln(os.Stderr, "phi-perf:", err)
		os.Exit(1)
	}
}

func run(out, label string, samples int, sampleTime time.Duration, filter, baseline string,
	check bool, alpha, margin float64, assemble, beforePath, afterPath string, issue int, notes string) error {
	if assemble != "" {
		return runAssemble(assemble, beforePath, afterPath, issue, notes)
	}
	opt := perf.Options{
		Samples:       samples,
		MinSampleTime: sampleTime,
		Label:         label,
		Progress:      func(line string) { fmt.Println(line) },
	}
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			return fmt.Errorf("bad -filter: %w", err)
		}
		opt.Filter = re
	}
	run, err := perf.Measure(perf.DefaultSuite(), opt)
	if err != nil {
		return err
	}
	if out != "" {
		if err := perf.WriteJSON(out, run); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	if baseline == "" {
		return nil
	}
	f, err := perf.ReadFile(baseline)
	if err != nil {
		return err
	}
	deltas := perf.Compare(f.Baseline, run, alpha, margin)
	fmt.Print(perf.FormatDeltas(deltas))
	if check {
		bad := 0
		for _, d := range deltas {
			if d.Regression || d.Missing {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d regression(s)/missing case(s) vs %s", bad, baseline)
		}
		fmt.Println("perf-gate: no significant regression vs", baseline)
	}
	return nil
}

func runAssemble(out, beforePath, afterPath string, issue int, notes string) error {
	if afterPath == "" {
		return fmt.Errorf("-assemble requires -after")
	}
	var recs []*perf.Run
	for _, p := range strings.Split(afterPath, ",") {
		af, err := perf.ReadFile(p)
		if err != nil {
			return err
		}
		recs = append(recs, af.Baseline)
	}
	pooled, err := perf.Pool(recs)
	if err != nil {
		return err
	}
	f := perf.File{Schema: 1, Issue: issue, Notes: notes, Baseline: pooled}
	if beforePath != "" {
		bf, err := perf.ReadFile(beforePath)
		if err != nil {
			return err
		}
		f.Before = bf.Baseline
	}
	if err := perf.WriteJSON(out, f); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
