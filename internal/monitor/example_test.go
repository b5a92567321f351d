package monitor_test

import (
	"context"
	"fmt"

	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/monitor"
)

// Example wires the resident monitor into a campaign: the campaign hands
// every record to its Observe hook, here the monitor's ObserveInjection,
// from each of its workers as the trial finishes. When the campaign
// returns, the monitor's snapshot covers every record, and its tallies
// are the campaign's own.
func Example() {
	m, err := monitor.New(monitor.Config{Device: "KNC3120A"})
	if err != nil {
		panic(err)
	}
	res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
		Benchmark: "DGEMM", N: 200, Seed: 5, BenchSeed: 1, Workers: 4,
		Observe: m.ObserveInjection,
	})
	if err != nil {
		panic(err)
	}

	snap := m.Snapshot()
	fmt.Printf("campaign: %d injections, %d SDC, %d DUE\n", res.N, res.Outcomes.SDC, res.Outcomes.DUE())
	fmt.Printf("monitor:  %d trials, sdc=%d/%d due=%d/%d\n", snap.Trials,
		snap.Aggregate.SDC.K, snap.Aggregate.SDC.N, snap.Aggregate.DUE.K, snap.Aggregate.DUE.N)
	// Output:
	// campaign: 200 injections, 62 SDC, 52 DUE
	// monitor:  200 trials, sdc=62/200 due=52/200
}
