// Package figures regenerates every table and figure of the paper's
// evaluation from fresh campaigns. It is the single harness shared by the
// cmd tools and the root benchmark suite, so `go test -bench` and the CLIs
// print identical rows. The experiment index is the root bench_test.go.
package figures

import (
	"context"
	"fmt"
	"sort"

	"phirel/internal/analysis"
	"phirel/internal/beam"
	"phirel/internal/bench/all"
	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/phi"
	"phirel/internal/report"
	"phirel/internal/state"
)

// Scale sizes the campaigns BeamResults and CampaignResults run. Quick is
// the one size in use: the figure benchmarks and the tests run at it; the
// paper-grade sweeps (>= 10,000 injections per cell) run through phi-bench
// -sweep and phi-fleet, not through this package.
type Scale struct {
	BeamRuns   int
	Injections int
	Workers    int
	Seed       uint64
	BenchSeed  uint64
}

// Quick is sized for CI: minutes of wall time, CIs of several percent.
func Quick() Scale {
	return Scale{BeamRuns: 6000, Injections: 600, Workers: 8, Seed: 1701, BenchSeed: 1}
}

// BeamResults runs the beam campaign for the five beam benchmarks through
// the fleet orchestrator: one beam cell per benchmark on a shared pool with
// per-cell derived seeds, the same path `phi-bench -sweep -beam-runs` uses.
func BeamResults(s Scale) (map[string]*beam.Result, error) {
	sw := fleet.Sweep{
		BeamRuns:       s.BeamRuns,
		BeamBenchmarks: all.BeamSuite,
		Seed:           s.Seed,
		BenchSeed:      s.BenchSeed,
		Workers:        s.Workers,
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("figures: beam sweep: %w", err)
	}
	return res.BeamFor(phi.DefaultDevice, false), nil
}

// beamOrder returns the render order for a beam result set: the paper's
// presentation order first, then any extension benchmarks (e.g. NW beam
// cells from a default fleet grid) sorted by name.
func beamOrder(results map[string]*beam.Result) []string {
	inSuite := map[string]bool{}
	var names []string
	for _, name := range all.BeamSuite {
		inSuite[name] = true
		if _, ok := results[name]; ok {
			names = append(names, name)
		}
	}
	var extra []string
	for name := range results {
		if !inSuite[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// Figure2 renders the beam FIT table: SDC FIT split by spatial pattern plus
// DUE FIT per benchmark.
func Figure2(results map[string]*beam.Result) *report.Table {
	t := report.NewTable(
		"Figure 2 — Benchmarks FIT and spatial distribution (sea level)",
		"Benchmark", "SDC FIT", "Cubic", "Square", "Line", "Single", "Random", "DUE FIT", "SDC ev", "DUE ev")
	for _, name := range beamOrder(results) {
		r := results[name]
		t.AddRow(name,
			fmt.Sprintf("%.1f", r.SDCFIT().FIT),
			fmt.Sprintf("%.1f", r.PatternFIT(analysis.PatternCubic).FIT),
			fmt.Sprintf("%.1f", r.PatternFIT(analysis.PatternSquare).FIT),
			fmt.Sprintf("%.1f", r.PatternFIT(analysis.PatternLine).FIT),
			fmt.Sprintf("%.1f", r.PatternFIT(analysis.PatternSingle).FIT),
			fmt.Sprintf("%.1f", r.PatternFIT(analysis.PatternRandom).FIT),
			fmt.Sprintf("%.1f", r.DUEFIT().FIT),
			fmt.Sprintf("%d", r.Outcomes.SDC),
			fmt.Sprintf("%d", r.DUE()),
		)
	}
	return t
}

// Figure3 renders the FIT-reduction-vs-tolerance curves.
func Figure3(results map[string]*beam.Result) *report.Table {
	t := report.NewTable(
		"Figure 3 — SDC FIT reduction [%] vs tolerated relative error",
		append([]string{"Benchmark"}, toleranceHeaders()...)...)
	for _, name := range beamOrder(results) {
		r := results[name]
		curve := r.ToleranceCurve(analysis.DefaultTolerances)
		row := []string{name}
		for _, v := range curve {
			row = append(row, fmt.Sprintf("%.0f", v))
		}
		t.AddRow(row...)
	}
	return t
}

func toleranceHeaders() []string {
	var out []string
	for _, tol := range analysis.DefaultTolerances {
		out = append(out, fmt.Sprintf("%.1f%%", 100*tol))
	}
	return out
}

// CampaignResults runs the CAROL-FI campaign for all six benchmarks.
func CampaignResults(s Scale, policy state.Policy) (map[string]*core.CampaignResult, error) {
	out := map[string]*core.CampaignResult{}
	for _, name := range all.Suite {
		res, err := core.RunCampaign(core.CampaignConfig{
			Benchmark: name, N: s.Injections, Seed: s.Seed, BenchSeed: s.BenchSeed,
			Workers: s.Workers, Policy: policy,
		})
		if err != nil {
			return nil, fmt.Errorf("figures: campaign %s: %w", name, err)
		}
		out[name] = res
	}
	return out, nil
}

// Figure4 renders the injection-outcome shares.
func Figure4(results map[string]*core.CampaignResult) *report.Table {
	t := report.NewTable(
		"Figure 4 — Outcomes of fault injections [%]",
		"Benchmark", "Masked", "SDC", "DUE", "(crash)", "(hang)", "N")
	for _, name := range all.Suite {
		r, ok := results[name]
		if !ok {
			continue
		}
		o := r.Outcomes
		n := float64(o.Total())
		t.AddRow(name,
			fmt.Sprintf("%.1f", 100*float64(o.Masked)/n),
			fmt.Sprintf("%.1f", 100*float64(o.SDC)/n),
			fmt.Sprintf("%.1f", 100*float64(o.DUE())/n),
			fmt.Sprintf("%.1f", 100*float64(o.DUECrash)/n),
			fmt.Sprintf("%.1f", 100*float64(o.DUEHang)/n),
			fmt.Sprintf("%d", o.Total()),
		)
	}
	return t
}

// Figure5 renders per-fault-model PVF for SDC (a) or DUE (b).
func Figure5(results map[string]*core.CampaignResult, due bool) *report.Table {
	which := "5a (SDC)"
	if due {
		which = "5b (DUE)"
	}
	t := report.NewTable(
		fmt.Sprintf("Figure %s — fault-model PVF [%%]", which),
		"Benchmark", "Single", "Double", "Random", "Zero")
	for _, name := range all.Suite {
		r, ok := results[name]
		if !ok {
			continue
		}
		row := []string{name}
		for _, m := range fault.Models {
			c := r.ByModel[m]
			var p float64
			if due {
				p = c.DUEPVF().Percent()
			} else {
				p = c.SDCPVF().Percent()
			}
			row = append(row, fmt.Sprintf("%.1f", p))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure6 renders per-time-window PVF for SDC (a) or DUE (b).
func Figure6(results map[string]*core.CampaignResult, due bool) *report.Table {
	which := "6a (SDC)"
	if due {
		which = "6b (DUE)"
	}
	maxW := 0
	for _, r := range results {
		if r.Windows > maxW {
			maxW = r.Windows
		}
	}
	headers := []string{"Benchmark"}
	for w := 1; w <= maxW; w++ {
		headers = append(headers, fmt.Sprintf("W%d", w))
	}
	t := report.NewTable(
		fmt.Sprintf("Figure %s — time-window PVF [%%] (paper: CLAMR 9 windows, DGEMM/HotSpot 5, LUD/NW 4)", which),
		headers...)
	for _, name := range all.Suite {
		r, ok := results[name]
		if !ok {
			continue
		}
		row := []string{name}
		for w := 0; w < maxW; w++ {
			if w >= r.Windows {
				row = append(row, "-")
				continue
			}
			c := r.ByWindow[w]
			var p float64
			if due {
				p = c.DUEPVF().Percent()
			} else {
				p = c.SDCPVF().Percent()
			}
			row = append(row, fmt.Sprintf("%.1f", p))
		}
		t.AddRow(row...)
	}
	return t
}

// Table1 renders per-region criticality for one benchmark (the paper's §6
// per-benchmark percentages).
func Table1(r *core.CampaignResult, minInjections int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table 1 — %s region criticality (conditional rates)", r.Benchmark),
		"Region", "Injections", "SDC %", "DUE %", "Harmful %")
	for _, c := range r.Criticality(minInjections) {
		t.AddRow(string(c.Region),
			fmt.Sprintf("%d", c.Injections),
			fmt.Sprintf("%.1f", c.SDC.Percent()),
			fmt.Sprintf("%.1f", c.DUE.Percent()),
			fmt.Sprintf("%.1f", c.Harmful.Percent()),
		)
	}
	return t
}

// Table2 renders the machine-scale extrapolation (paper §4.2: Trinity-size
// 19,000 boards; hypothetical exascale at 10×).
func Table2(results map[string]*beam.Result) *report.Table {
	t := report.NewTable(
		"Table 2 — extrapolated mean days between events at machine scale",
		"Benchmark", "Event", "FIT", "Trinity 19k [days]", "Exascale 190k [days]")
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		r := results[name]
		for _, ev := range []struct {
			label string
			fit   float64
		}{{"SDC", r.SDCFIT().FIT}, {"DUE", r.DUEFIT().FIT}} {
			t.AddRow(name, ev.label,
				fmt.Sprintf("%.1f", ev.fit),
				fmt.Sprintf("%.1f", analysis.MachineMTBFDays(ev.fit, 19000)),
				fmt.Sprintf("%.1f", analysis.MachineMTBFDays(ev.fit, 190000)),
			)
		}
	}
	return t
}

// Recommendations renders the mitigation advice for one campaign.
func Recommendations(r *core.CampaignResult, minInjections int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Mitigation recommendations — %s (paper §6.1)", r.Benchmark),
		"Region", "Technique", "Rationale")
	for _, rec := range r.Recommend(minInjections) {
		t.AddRow(string(rec.Region), rec.Technique, rec.Rationale)
	}
	return t
}
