// Package phirel's root benchmark suite regenerates every table and figure
// of the paper's evaluation (the Benchmark* functions below are the
// experiment index: Figures 2-6, Tables 1-2, and the A1-A3 ablations).
// The figure benchmarks read one fleet.Sweep, run once: the sweep
// `phi-bench -sweep -beam-runs 6000` runs at its default grid, 600
// injections per cell and 6 000 runs per beam cell. Each times its figure's
// render and prints the regenerated rows once, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The cmd tools run the same harness, at
// paper-grade sample counts when asked.
package phirel_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"phirel/internal/beam"
	"phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/phi"
	"phirel/internal/state"
)

// The sweep is expensive; the figure benches share one run of it so
// `go test -bench=.` stays tractable.
var (
	sweepOnce sync.Once
	sweepRes  *fleet.SweepResult
	sweepErr  error
)

func sweep(b *testing.B) *fleet.SweepResult {
	sweepOnce.Do(func() {
		sweepRes, sweepErr = fleet.Sweep{
			N: 600, BeamRuns: 6000, BeamBenchmarks: all.BeamSuite,
			Seed: 1701, BenchSeed: 1, Workers: 8,
		}.Run(context.Background())
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepRes
}

// beamResults is the sweep's default-device, ECC-on beam arm.
func beamResults(b *testing.B) map[string]*beam.Result {
	return sweep(b).BeamFor(phi.DefaultDevice, false)
}

// campaignResults is the sweep's injection cells, merged per benchmark.
func campaignResults(b *testing.B) map[string]*core.CampaignResult {
	return sweep(b).MergedFor(state.ByFrameThenVariable)
}

// reportTrials attaches the rail's trials/sec metric: perIter is how many
// campaign trials (or renders, for the figure-formatting benches) one
// iteration executes.
func reportTrials(b *testing.B, perIter float64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(perIter*float64(b.N)/s, "trials/sec")
	}
}

func BenchmarkFigure2_BeamFIT(b *testing.B) {
	res := beamResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = figures.Figure2(res).String()
	}
	b.StopTimer()
	reportTrials(b, 1)
	fmt.Fprintln(os.Stderr, figures.Figure2(res))
}

func BenchmarkFigure3_Tolerance(b *testing.B) {
	res := beamResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = figures.Figure3(res).String()
	}
	b.StopTimer()
	reportTrials(b, 1)
	fmt.Fprintln(os.Stderr, figures.Figure3(res))
}

func BenchmarkFigure4_Outcomes(b *testing.B) {
	res := campaignResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = figures.Figure4(res).String()
	}
	b.StopTimer()
	reportTrials(b, 1)
	fmt.Fprintln(os.Stderr, figures.Figure4(res))
}

func BenchmarkFigure5_FaultModelPVF(b *testing.B) {
	res := campaignResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = figures.Figure5(res, false).String()
		_ = figures.Figure5(res, true).String()
	}
	b.StopTimer()
	reportTrials(b, 2)
	fmt.Fprintln(os.Stderr, figures.Figure5(res, false))
	fmt.Fprintln(os.Stderr, figures.Figure5(res, true))
}

func BenchmarkFigure6_TimeWindowPVF(b *testing.B) {
	res := campaignResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = figures.Figure6(res, false).String()
		_ = figures.Figure6(res, true).String()
	}
	b.StopTimer()
	reportTrials(b, 2)
	fmt.Fprintln(os.Stderr, figures.Figure6(res, false))
	fmt.Fprintln(os.Stderr, figures.Figure6(res, true))
}

func BenchmarkTable1_RegionCriticality(b *testing.B) {
	res := campaignResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range all.Suite {
			_ = figures.Table1(res[name], 20).String()
		}
	}
	b.StopTimer()
	reportTrials(b, float64(len(all.Suite)))
	for _, name := range all.Suite {
		fmt.Fprintln(os.Stderr, figures.Table1(res[name], 20))
	}
}

func BenchmarkTable2_Extrapolation(b *testing.B) {
	res := beamResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = figures.Table2(res).String()
	}
	b.StopTimer()
	reportTrials(b, 1)
	fmt.Fprintln(os.Stderr, figures.Table2(res))
}

// Ablation A1: the CAROL-FI frame-then-variable policy vs physical
// by-bytes site selection.
func BenchmarkAblation_SitePolicy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, pol := range []state.Policy{state.ByFrameThenVariable, state.ByBytes} {
			res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
				Benchmark: "DGEMM", N: 400, Seed: 11, BenchSeed: 1, Workers: 8, Policy: pol,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Fprintf(os.Stderr, "A1 policy=%v masked=%s sdc=%s due=%s\n",
					pol, res.Outcomes.MaskedShare(), res.Outcomes.SDCPVF(), res.Outcomes.DUEPVF())
			}
		}
	}
	reportTrials(b, 2*400)
}

// Ablation A2: SECDED on vs off in the device model.
func BenchmarkAblation_ECC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, off := range []bool{false, true} {
			res, err := beam.Run(beam.Config{
				Benchmark: "DGEMM", Runs: 4000, Seed: 13, BenchSeed: 1, Workers: 8,
				DisableECC: off,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Fprintf(os.Stderr, "A2 eccOff=%v SDC FIT=%.1f DUE FIT=%.1f (mca %d)\n",
					off, res.SDCFIT().FIT, res.DUEFIT().FIT, res.Outcomes.DUEMCA)
			}
		}
	}
	reportTrials(b, 2*4000)
}

// Ablation A3: mitigation — the selective-hardening plan for DGEMM.
func BenchmarkAblation_Mitigation(b *testing.B) {
	b.Run("selective-plan", func(b *testing.B) {
		res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
			Benchmark: "DGEMM", N: 400, Seed: 19, BenchSeed: 1, Workers: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan := SelectivePlan(res, 0.15, 20)
			if i == 0 {
				fmt.Fprintf(os.Stderr, "A3 selective: overhead %.0f%% harm %.1f%%→%.1f%%\n",
					100*plan.TotalOverhead, 100*plan.HarmBefore, 100*plan.HarmAfter)
			}
		}
		reportTrials(b, 1)
	})
}

// BenchmarkFleetSweep measures the fleet orchestrator end to end: the full
// benchmarks × fault-models grid on one shared pool at a small N, the same
// shape CI's sweep artifact job runs.
func BenchmarkFleetSweep(b *testing.B) {
	b.ReportAllocs()
	trials := 0.0
	for i := 0; i < b.N; i++ {
		res, err := fleet.Sweep{N: 8, Seed: 1701, BenchSeed: 1, Workers: 8}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			trials = float64(8 * len(res.Cells))
			fmt.Fprintf(os.Stderr, "fleet: %d cells, %d benchmarks merged\n",
				len(res.Cells), len(res.MergedFor(state.ByFrameThenVariable)))
		}
	}
	reportTrials(b, trials)
}

// BenchmarkWorkloads measures raw golden-run cost per workload (context for
// campaign budgeting).
func BenchmarkWorkloads(b *testing.B) {
	for _, name := range all.Suite {
		b.Run(name, func(b *testing.B) {
			inj, err := core.NewInjector(name, 1, state.ByFrameThenVariable)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := inj.Runner.RunGolden(); res.Status != 0 {
					b.Fatal("golden run failed")
				}
			}
			reportTrials(b, 1)
		})
	}
}

// A final sanity check exposed as a test so `go test .` verifies the
// headline claims end-to-end, on a beam-only sweep.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// 16,000 runs per benchmark: the DUE orderings below ride on tens of
	// events per cell, and smaller samples leave the HotSpot/LavaMD gap
	// inside its error bars.
	sr, err := fleet.Sweep{
		BeamRuns: 16000, BeamBenchmarks: all.BeamSuite, Seed: 2024, BenchSeed: 1, Workers: 8,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	results := sr.BeamFor(phi.DefaultDevice, false)
	// Paper §4.2: LUD and HotSpot (single-precision iterative kernels) top
	// the SDC FIT ranking; CLAMR is lowest.
	lud := results["LUD"].SDCFIT().FIT
	clamr := results["CLAMR"].SDCFIT().FIT
	if lud <= clamr {
		t.Fatalf("LUD SDC FIT %.1f not above CLAMR %.1f", lud, clamr)
	}
	for _, name := range all.BeamSuite {
		if name == "LUD" {
			continue
		}
		if f := results[name].SDCFIT().FIT; f >= lud {
			t.Errorf("%s SDC FIT %.1f >= LUD %.1f; paper has LUD highest", name, f, lud)
		}
	}
	// Paper §4.2: DGEMM and LavaMD have the lowest DUE FITs.
	hotspotDUE := results["HotSpot"].DUEFIT().FIT
	if results["DGEMM"].DUEFIT().FIT >= hotspotDUE {
		t.Error("DGEMM DUE FIT should be below HotSpot's")
	}
	if results["LavaMD"].DUEFIT().FIT >= hotspotDUE {
		t.Error("LavaMD DUE FIT should be below HotSpot's")
	}
	// Paper §4.4: HotSpot shows the strongest FIT reduction under
	// tolerance among the beam benchmarks.
	at2pct := func(n string) float64 {
		return results[n].ToleranceCurve([]float64{0.02})[0]
	}
	hs := at2pct("HotSpot")
	for _, name := range []string{"DGEMM", "LUD", "LavaMD"} {
		if at2pct(name) >= hs {
			t.Errorf("%s tolerance reduction %.0f%% >= HotSpot %.0f%%", name, at2pct(name), hs)
		}
	}
	// Paper §2.1: well under half of corrupted runs are single-element.
	for _, name := range all.BeamSuite {
		r := results[name]
		if r.Outcomes.SDC >= 40 && r.SingleElementShare().P > 0.5 {
			t.Errorf("%s single-element share %.0f%%", name, r.SingleElementShare().Percent())
		}
	}
}
