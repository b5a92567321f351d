package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"phirel/internal/bench"
	"phirel/internal/core"
	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/state"
	"phirel/internal/trace"
)

// Report is phi-report: the paper's tables re-derived from a carol-fi
// JSONL log (-in) or rendered from a fleet sweep artifact (-sweep).
func Report(_ context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := Flags("phi-report", stderr)
	var (
		in    = fs.String("in", "", "JSONL log written by carol-fi -out ('-' = stdin)")
		sweep = fs.String("sweep", "", "SweepResult JSON written by phi-bench -sweep -out")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	return Run(fs, args, func() error {
		var groups []figures.TableGroup
		var err error
		switch {
		case *sweep != "":
			groups, err = sweepGroups(*sweep)
		case *in != "":
			groups, err = logGroups(*in, stdin)
		default:
			err = errors.New("missing -in (or -sweep)")
		}
		if err != nil {
			return err
		}
		emit(stdout, groups, *csv)
		return nil
	})
}

// logGroups folds a JSONL injection log into one campaign result per
// policy and benchmark and renders each policy's results as its
// figures.PolicyGroup. A record whose outcome, model, policy or pattern no
// campaign writes is refused with its line number (core's Check), never
// counted under a default. A benchmark's window count comes from the
// registry, as a campaign takes it, not from the windows its records
// happen to hit.
func logGroups(path string, stdin io.Reader) ([]figures.TableGroup, error) {
	f, name, err := OpenInput(path, stdin)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	results := map[state.Policy]map[string]*core.CampaignResult{}
	windows := map[string]int{}
	err = trace.Each(f, func(rec core.InjectionRecord) error {
		if err := rec.Check(); err != nil {
			return err
		}
		policy := rec.PolicyOf()
		if results[policy] == nil {
			results[policy] = map[string]*core.CampaignResult{}
		}
		r := results[policy][rec.Benchmark]
		if r == nil {
			if _, ok := windows[rec.Benchmark]; !ok {
				b, err := bench.New(rec.Benchmark, 0)
				if err != nil {
					return err
				}
				windows[rec.Benchmark] = b.Windows()
			}
			r = core.NewCampaignResult(rec.Benchmark, policy, 0, windows[rec.Benchmark])
			results[policy][rec.Benchmark] = r
		}
		r.Fold(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no records in %s", name)
	}
	policies := make([]state.Policy, 0, len(results))
	for p := range results {
		policies = append(policies, p)
	}
	sort.Slice(policies, func(i, j int) bool { return policies[i] < policies[j] })
	groups := make([]figures.TableGroup, len(policies))
	for i, p := range policies {
		groups[i] = figures.PolicyGroup(p, results[p])
	}
	return groups, nil
}

// sweepGroups reads a fleet sweep artifact and renders it through
// figures.SweepGroups, the one definition of what a sweep renders as
// (shared with the phi-serve figures endpoint): injection cells per policy,
// beam cells per (device, ECC) arm, so a CI artifact and a fresh run print
// identical tables.
func sweepGroups(path string) ([]figures.TableGroup, error) {
	sr, err := fleet.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(sr.Cells) == 0 && len(sr.BeamCells) == 0 {
		return nil, fmt.Errorf("no cells in %s", path)
	}
	return figures.SweepGroups(sr), nil
}

// emit writes every group's tables, aligned or as CSV, each group
// bannered only when its kind has siblings to tell apart.
func emit(w io.Writer, groups []figures.TableGroup, csv bool) {
	perKind := map[string]int{}
	for _, g := range groups {
		perKind[g.Kind]++
	}
	for _, g := range groups {
		if perKind[g.Kind] > 1 {
			fmt.Fprintf(w, "== %s ==\n\n", g.Label)
		}
		for _, t := range g.Tables {
			if csv {
				t.CSV(w)
				fmt.Fprintln(w)
			} else {
				fmt.Fprintln(w, t)
			}
		}
	}
}
