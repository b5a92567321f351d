package mitigation_test

import (
	"fmt"

	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/mitigation"
)

// Selective hardening (paper §6.1): a CAROL-FI campaign on DGEMM gives
// each code region's harmful-outcome rate, and the plan protects the most
// critical regions first within a 15% overhead budget.
func ExampleSelectivePlan() {
	res, err := core.RunCampaign(core.CampaignConfig{
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
	plan := mitigation.SelectivePlan(res, 0.15, 10)
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
