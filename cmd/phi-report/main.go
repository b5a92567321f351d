// Command phi-report re-derives the paper's tables from published data —
// the analog of the paper artifact's parser scripts over the public log
// release. With -in it folds a JSONL log written by carol-fi -out through
// the campaign's own record fold (core.Tally), one result per policy and
// benchmark, and prints each policy's Figure 4/5/6 and Table 1 tables, so
// a log re-derives the tables carol-fi printed, byte for byte. With -sweep
// it renders the figures of a fleet SweepResult written by phi-bench
// -sweep -out. Both print through the figures package's table groups.
//
// Usage:
//
//	phi-report -in logs.jsonl [-csv]
//	phi-report -in - [-csv]   # read the JSONL log from stdin
//	phi-report -sweep sweep.json [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/cli"
	"phirel/internal/core"
	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/state"
	"phirel/internal/trace"
)

func main() {
	var (
		in    = flag.String("in", "", "JSONL log written by carol-fi -out ('-' = stdin)")
		sweep = flag.String("sweep", "", "SweepResult JSON written by phi-bench -sweep -out")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()
	var groups []figures.TableGroup
	var err error
	switch {
	case *sweep != "":
		groups, err = sweepGroups(*sweep)
	case *in != "":
		groups, err = logGroups(*in)
	default:
		err = fmt.Errorf("missing -in (or -sweep)")
	}
	if err != nil {
		fatal(err)
	}
	emit(groups, *csv)
}

// logGroups folds a JSONL injection log into one campaign result per
// policy and benchmark and renders each policy's results as its
// figures.PolicyGroup. A benchmark's window count comes from the registry,
// as a campaign takes it, not from the windows its records happen to hit.
func logGroups(path string) ([]figures.TableGroup, error) {
	f, name, err := cli.OpenInput(path, os.Stdin)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := trace.Read[core.InjectionRecord](f)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("no records in %s", name)
	}
	type cell struct {
		policy    state.Policy
		benchmark string
	}
	tallies := map[cell]*core.Tally{}
	windows := map[string]int{}
	for _, rec := range records {
		c := cell{rec.PolicyOf(), rec.Benchmark}
		t := tallies[c]
		if t == nil {
			if _, ok := windows[c.benchmark]; !ok {
				b, err := bench.New(c.benchmark, 0)
				if err != nil {
					return nil, err
				}
				windows[c.benchmark] = b.Windows()
			}
			t = core.NewTally(windows[c.benchmark])
			tallies[c] = t
		}
		t.Fold(rec)
	}
	results := map[state.Policy]map[string]*core.CampaignResult{}
	for c, t := range tallies {
		if results[c.policy] == nil {
			results[c.policy] = map[string]*core.CampaignResult{}
		}
		results[c.policy][c.benchmark] = core.Assemble(c.benchmark, c.policy, 0, windows[c.benchmark], []*core.Tally{t})
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
func emit(groups []figures.TableGroup, csv bool) {
	perKind := map[string]int{}
	for _, g := range groups {
		perKind[g.Kind]++
	}
	for _, g := range groups {
		if perKind[g.Kind] > 1 {
			fmt.Printf("== %s ==\n\n", g.Label)
		}
		for _, t := range g.Tables {
			if csv {
				t.CSV(os.Stdout)
				fmt.Println()
			} else {
				fmt.Println(t)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phi-report:", err)
	os.Exit(1)
}
