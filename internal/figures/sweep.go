package figures

import (
	"fmt"
	"sort"

	"phirel/internal/core"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
	"phirel/internal/report"
	"phirel/internal/state"
)

// TableGroup is one rendered slice of a sweep artifact: the paper tables
// and figures for a single ablation arm. Kind discriminates the two arm
// families; Label identifies the arm within its family and is what a
// renderer prints as a section banner when a sweep carries more than one
// arm of a kind.
type TableGroup struct {
	// Kind is "policy" for injection arms and "beam" for beam arms.
	Kind string `json:"kind"`
	// Label names the arm, e.g. "policy: by-frame" or
	// "beam arm: KNC3120A, ECC on".
	Label string `json:"label"`
	// Tables are the rendered figures and tables, in paper order.
	Tables []*report.Table `json:"tables"`
}

// SweepGroups renders a complete sweep artifact into table groups — the
// one definition of "which figures does this artifact produce" shared by
// cmd/phi-report (ASCII/CSV output) and the sweep service's figures
// endpoint (JSON output), so the two surfaces can never disagree on what
// a sweep renders as.
//
// Injection cells produce one PolicyGroup per site-selection policy (a
// multi-policy sweep is an ablation and conflating its arms would
// misreport every figure). Beam cells produce one group per (device, ECC)
// arm: Figure 2, Figure 3, Table 2.
func SweepGroups(sr *fleet.SweepResult) []TableGroup {
	var groups []TableGroup
	policies := sr.Spec.Policies
	if len(policies) == 0 { // hand-built artifact without a normalised spec
		seen := map[state.Policy]bool{}
		for _, c := range sr.Cells {
			if !seen[c.Policy] {
				seen[c.Policy] = true
				policies = append(policies, c.Policy)
			}
		}
	}
	for _, policy := range policies {
		if merged := sr.MergedFor(policy); len(merged) > 0 {
			groups = append(groups, PolicyGroup(policy, merged))
		}
	}
	for _, arm := range sr.BeamArms() {
		results := sr.BeamFor(arm.Device, arm.DisableECC)
		if len(results) == 0 {
			continue
		}
		ecc := "on"
		if arm.DisableECC {
			ecc = "off"
		}
		groups = append(groups, TableGroup{
			Kind:   "beam",
			Label:  fmt.Sprintf("beam arm: %s, ECC %s", arm.Device, ecc),
			Tables: []*report.Table{Figure2(results), Figure3(results), Table2(results)},
		})
	}
	if t := MonitorConvergence(sr); t != nil {
		groups = append(groups, TableGroup{
			Kind:   "monitor",
			Label:  "reliability monitor: FIT/MTBF convergence",
			Tables: []*report.Table{t},
		})
	}
	return groups
}

// PolicyGroup renders the campaign results of one site-selection policy,
// keyed by benchmark: Figure 4, Figure 5 (SDC and DUE), Figure 6 (SDC and
// DUE), and Table 1 per benchmark in name order. It is the injection half
// of SweepGroups, and what cmd/phi-report -in renders a JSONL log as.
func PolicyGroup(policy state.Policy, results map[string]*core.CampaignResult) TableGroup {
	g := TableGroup{Kind: "policy", Label: fmt.Sprintf("policy: %s", policy)}
	g.Tables = append(g.Tables,
		Figure4(results),
		Figure5(results, false),
		Figure5(results, true),
		Figure6(results, false),
		Figure6(results, true))
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g.Tables = append(g.Tables, Table1(results[n], 20))
	}
	return g
}

// MonitorConvergence renders the resident monitor's convergence series for
// a sweep artifact: the rolling aggregate SDC/DUE FIT estimate, its 95%
// Wilson interval, and the derived MTBF at increasing trial counts —
// estimate ± CI vs. trials consumed, the table both cmd/phi-report and the
// sweep service's figures endpoint show so an operator can see how many
// trials the estimate needed to settle. Returns nil for an empty sweep.
func MonitorConvergence(sr *fleet.SweepResult) *report.Table {
	points, err := monitor.Convergence(sr, monitor.Config{})
	if err != nil || len(points) == 0 {
		return nil
	}
	t := report.NewTable("Monitor convergence (aggregate FIT vs. trials consumed)",
		"Cells", "Trials", "SDC FIT", "SDC 95% CI", "DUE FIT", "DUE 95% CI", "SDC MTBF (h)")
	for _, p := range points {
		a := p.Snapshot.Aggregate
		t.AddRow(
			fmt.Sprintf("%d", p.Cells),
			fmt.Sprintf("%d", p.Snapshot.Trials),
			fmt.Sprintf("%.1f", a.SDC.FIT),
			fmt.Sprintf("[%.1f, %.1f]", a.SDC.FITLo, a.SDC.FITHi),
			fmt.Sprintf("%.1f", a.DUE.FIT),
			fmt.Sprintf("[%.1f, %.1f]", a.DUE.FITLo, a.DUE.FITHi),
			fmt.Sprintf("%.0f", a.SDC.MTBFHours),
		)
	}
	return t
}
