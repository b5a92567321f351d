package core_test

import (
	"context"
	"fmt"

	_ "phirel/internal/bench/all"
	"phirel/internal/core"
)

// Inject 200 transient faults into DGEMM with the CAROL-FI analog and
// print the outcome breakdown and the most critical code regions: the
// whole pipeline in one call. The numbers are the same for any Workers.
func ExampleRunCampaign() {
	res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
		Benchmark: "DGEMM",
		N:         200,
		Seed:      42,
		BenchSeed: 1,
		Workers:   4,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("DGEMM, %d injections (Single/Double/Random/Zero round-robin):\n", res.N)
	fmt.Printf("  masked: %s\n", res.Outcomes.MaskedShare())
	fmt.Printf("  SDC:    %s\n", res.Outcomes.SDCPVF())
	fmt.Printf("  DUE:    %s (%d crashes, %d hangs)\n",
		res.Outcomes.DUEPVF(), res.Outcomes.DUECrash, res.Outcomes.DUEHang)
	fmt.Println("Most critical code regions:")
	for _, c := range res.Criticality(10) {
		fmt.Printf("  %-10s harmful %.1f%% over %d injections\n",
			c.Region, c.Harmful.Percent(), c.Injections)
	}
	// Output:
	// DGEMM, 200 injections (Single/Double/Random/Zero round-robin):
	//   masked: 43.00% (86/200, 95% CI 36.33%-49.93%)
	//   SDC:    28.00% (56/200, 95% CI 22.24%-34.59%)
	//   DUE:    29.00% (58/200, 95% CI 23.15%-35.64%) (49 crashes, 9 hangs)
	// Most critical code regions:
	//   matrix     harmful 70.6% over 17 injections
	//   control    harmful 55.7% over 183 injections
}
