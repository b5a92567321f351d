package phirel_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"phirel/internal/core"
	"phirel/internal/state"
)

// Selective hardening (paper §6.1), the A3 ablation: a campaign's
// criticality table becomes a plan in which regions, taken most critical
// first, are each protected by the best technique of a catalogue (parity,
// residue codes, DWC, ABFT, redundant multithreading) that still fits an
// overhead budget, with the harm the plan is predicted to remove. The
// programs print core.CampaignResult.Recommend's advice instead; the plan
// lives beside the ablation that measures it.

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

// Selective hardening (paper §6.1): a CAROL-FI campaign on DGEMM gives
// each code region's harmful-outcome rate, and the plan protects the most
// critical regions first within a 15% overhead budget.
func ExampleSelectivePlan() {
	res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
		Benchmark: "DGEMM", N: 400, Seed: 99, BenchSeed: 1, Workers: 4,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("Criticality (conditional harmful rates per region):")
	for _, c := range res.Criticality(10) {
		fmt.Printf("  %-10s SDC %5.1f%%  DUE %5.1f%%  (n=%d)\n",
			c.Region, c.SDC.Percent(), c.DUE.Percent(), c.Injections)
	}
	plan := SelectivePlan(res, 0.15, 10)
	fmt.Println("Selective plan under a 15% overhead budget:")
	for _, e := range plan.Entries {
		fmt.Printf("  %-10s <- %-14s (removes %.2f%% absolute harm)\n",
			e.Region, e.Technique.Name, 100*e.HarmRemoved)
	}
	fmt.Printf("  total overhead %.0f%%, harmful outcomes %.1f%% -> %.1f%% (x%.1f better)\n",
		100*plan.TotalOverhead, 100*plan.HarmBefore, 100*plan.HarmAfter, plan.Improvement())
	// Output:
	// Criticality (conditional harmful rates per region):
	//   matrix     SDC  56.5%  DUE   0.0%  (n=23)
	//   control    SDC  24.7%  DUE  24.1%  (n=377)
	// Selective plan under a 15% overhead budget:
	//   control    <- residue-mod3   (removes 32.20% absolute harm)
	//   matrix     <- dwc            (removes 3.09% absolute harm)
	//   total overhead 14%, harmful outcomes 49.3% -> 14.0% (x3.5 better)
}

func TestSelectivePlan(t *testing.T) {
	res := &core.CampaignResult{
		ByRegion: map[state.Region]core.OutcomeCounts{
			"control": {Masked: 100, SDC: 150, DUECrash: 250}, // 500 inj, 80% harmful
			"matrix":  {Masked: 200, SDC: 250, DUECrash: 50},  // 500 inj, 60% harmful
		},
	}
	res.Outcomes = core.OutcomeCounts{Masked: 300, SDC: 400, DUECrash: 300}
	plan := SelectivePlan(res, 0.25, 10)
	if len(plan.Entries) == 0 {
		t.Fatal("empty plan")
	}
	if plan.TotalOverhead > 0.25+1e-9 {
		t.Fatalf("budget exceeded: %v", plan.TotalOverhead)
	}
	if plan.HarmAfter >= plan.HarmBefore {
		t.Fatal("plan removed nothing")
	}
	if plan.Improvement() <= 1 {
		t.Fatalf("improvement %v", plan.Improvement())
	}
	// A tighter budget must not remove more harm.
	tight := SelectivePlan(res, 0.05, 10)
	if tight.HarmBefore-tight.HarmAfter > plan.HarmBefore-plan.HarmAfter+1e-12 {
		t.Fatal("tighter budget outperformed larger one")
	}
}

func TestSelectivePlanEmptyCampaign(t *testing.T) {
	res := &core.CampaignResult{ByRegion: map[state.Region]core.OutcomeCounts{}}
	plan := SelectivePlan(res, 1, 1)
	if len(plan.Entries) != 0 || plan.Improvement() != 1 {
		t.Fatal("degenerate plan")
	}
}
