// Package mitigation turns a campaign's criticality table into a
// selective-hardening plan (paper §6.1): regions taken most critical first,
// each protected by the best technique of a catalogue (parity, residue
// codes, DWC, ABFT, redundant multithreading) that still fits an overhead
// budget, with the harm the plan is predicted to remove. Its callers are
// ExampleSelectivePlan and the root benchmark suite's mitigation ablation.
package mitigation

import (
	"sort"

	"phirel/internal/core"
	"phirel/internal/state"
)

// Technique is a protection mechanism with its runtime overhead and the
// fraction of a region's harmful faults it removes (coverage). Costs follow
// the paper's qualitative ranking: parity < residue < DWC < ABFT < RMT <
// full replication.
type Technique struct {
	Name     string
	Overhead float64 // fractional slowdown when applied to one region
	Coverage float64 // fraction of the region's harmful outcomes removed
}

// Catalogue is the default technique menu (paper §6.1).
var Catalogue = []Technique{
	{Name: "parity", Overhead: 0.02, Coverage: 0.50},
	{Name: "residue-mod3", Overhead: 0.04, Coverage: 0.70},
	{Name: "residue-mod15", Overhead: 0.06, Coverage: 0.85},
	{Name: "dwc", Overhead: 0.10, Coverage: 0.95},
	{Name: "abft", Overhead: 0.12, Coverage: 0.90},
	{Name: "rmt", Overhead: 0.50, Coverage: 0.98},
}

// PlanEntry assigns one technique to one region.
type PlanEntry struct {
	Region    state.Region
	Technique Technique
	// HarmRemoved is the absolute PVF (SDC+DUE share of all injections)
	// this entry removes.
	HarmRemoved float64
}

// Plan is a selective-hardening assignment.
type Plan struct {
	Entries []PlanEntry
	// TotalOverhead is the summed fractional slowdown.
	TotalOverhead float64
	// HarmBefore and HarmAfter are the campaign-wide harmful-outcome
	// fractions before and after protection.
	HarmBefore, HarmAfter float64
}

// SelectivePlan builds a protection plan from campaign criticality under an
// overhead budget: regions are taken most-critical-first, and each gets the
// highest-coverage technique that still fits the remaining budget — the
// paper's "apply the most appropriate level of protection to provide the
// desired level of resilience" (§6.1).
func SelectivePlan(res *core.CampaignResult, budget float64, minInjections int) Plan {
	crit := res.Criticality(minInjections)
	total := res.Outcomes.Total()
	plan := Plan{}
	if total == 0 {
		return plan
	}
	harm := func(c core.RegionCriticality) float64 {
		return float64(float64(c.Injections) / float64(total) * c.Harmful.P) // rounded before its sums: make fusion-check
	}
	for _, c := range crit {
		plan.HarmBefore += harm(c)
	}
	plan.HarmAfter = plan.HarmBefore
	remaining := budget
	for _, c := range crit {
		best := Technique{}
		for _, t := range Catalogue {
			if t.Overhead <= remaining && t.Coverage > best.Coverage {
				best = t
			}
		}
		if best.Name == "" {
			continue
		}
		removed := float64(harm(c) * best.Coverage) // rounded before its sum: make fusion-check
		if removed <= 0 {
			continue
		}
		plan.Entries = append(plan.Entries, PlanEntry{
			Region: c.Region, Technique: best, HarmRemoved: removed,
		})
		plan.TotalOverhead += best.Overhead
		plan.HarmAfter -= removed
		remaining -= best.Overhead
		if remaining <= 0 {
			break
		}
	}
	sort.Slice(plan.Entries, func(i, j int) bool {
		return plan.Entries[i].HarmRemoved > plan.Entries[j].HarmRemoved
	})
	return plan
}

// Improvement returns the factor by which harmful outcomes shrink under
// the plan (∞-safe: returns 1 when nothing was harmful).
func (p Plan) Improvement() float64 {
	if p.HarmBefore <= 0 || p.HarmAfter <= 0 {
		return 1
	}
	return p.HarmBefore / p.HarmAfter
}
