package figures

import (
	"context"
	"strings"
	"testing"

	"phirel/internal/beam"
	"phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fleet"
	"phirel/internal/phi"
	"phirel/internal/state"
)

// tiny runs s, sized by the caller for a unit test, on the seeds and pool
// the figure tests share.
func tiny(t *testing.T, s fleet.Sweep) *fleet.SweepResult {
	t.Helper()
	s.Seed, s.BenchSeed, s.Workers = 5, 1, 4
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBeamFiguresEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results := tiny(t, fleet.Sweep{BeamRuns: 400, BeamBenchmarks: all.BeamSuite}).BeamFor(phi.DefaultDevice, false)
	f2 := Figure2(results).String()
	for _, name := range []string{"CLAMR", "DGEMM", "HotSpot", "LavaMD", "LUD"} {
		if !strings.Contains(f2, name) {
			t.Fatalf("Figure 2 missing %s:\n%s", name, f2)
		}
	}
	f3 := Figure3(results).String()
	if !strings.Contains(f3, "0.1%") || !strings.Contains(f3, "15.0%") {
		t.Fatalf("Figure 3 tolerance columns missing:\n%s", f3)
	}
	t2 := Table2(results).String()
	if !strings.Contains(t2, "Trinity") {
		t.Fatalf("Table 2 missing extrapolation:\n%s", t2)
	}
}

func TestCampaignFiguresEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// 12 injections per cell: 48 per benchmark over the four fault models.
	results := tiny(t, fleet.Sweep{N: 12}).MergedFor(state.ByFrameThenVariable)
	f4 := Figure4(results).String()
	if !strings.Contains(f4, "NW") || !strings.Contains(f4, "Masked") {
		t.Fatalf("Figure 4:\n%s", f4)
	}
	f5a := Figure5(results, false).String()
	if !strings.Contains(f5a, "Zero") || !strings.Contains(f5a, "5a") {
		t.Fatalf("Figure 5a:\n%s", f5a)
	}
	f5b := Figure5(results, true).String()
	if !strings.Contains(f5b, "5b") {
		t.Fatalf("Figure 5b:\n%s", f5b)
	}
	f6a := Figure6(results, false).String()
	if !strings.Contains(f6a, "W9") {
		t.Fatalf("Figure 6a should span 9 windows (CLAMR):\n%s", f6a)
	}
	// LUD has 4 windows → dashes beyond W4.
	for _, line := range strings.Split(f6a, "\n") {
		if strings.HasPrefix(line, "LUD") && !strings.Contains(line, "-") {
			t.Fatalf("LUD row should pad missing windows:\n%s", line)
		}
	}
	t1 := Table1(results["DGEMM"], 1).String()
	if !strings.Contains(t1, "control") && !strings.Contains(t1, "matrix") {
		t.Fatalf("Table 1 regions missing:\n%s", t1)
	}
	rec := Recommendations(results["DGEMM"], 1).String()
	if len(rec) == 0 {
		t.Fatal("no recommendations")
	}
}

func TestFigure2HandlesMissing(t *testing.T) {
	tbl := Figure2(map[string]*beam.Result{})
	if len(tbl.Rows) != 0 {
		t.Fatal("rows for missing results")
	}
	f4 := Figure4(map[string]*core.CampaignResult{})
	if len(f4.Rows) != 0 {
		t.Fatal("rows for missing campaigns")
	}
}

// TestTable2Golden pins the exact machine-scale extrapolation render for a
// synthetic beam result with hand-checkable numbers: RawFaultRate 1e-5 and
// SDC share 0.1 give FIT = 1e-5·1e9·0.1 = 1000, and 1000 FIT across 19,000
// boards is 1e9/(1000·19000·24) ≈ 2.2 days between events.
func TestTable2Golden(t *testing.T) {
	mk := func(name string, sdc, crash int) *beam.Result {
		return &beam.Result{
			Benchmark: name, Runs: 1000, Device: "X",
			Outcomes:     core.OutcomeCounts{Masked: 1000 - sdc - crash, SDC: sdc, DUECrash: crash},
			RawFaultRate: 1e-5,
		}
	}
	results := map[string]*beam.Result{
		"DGEMM": mk("DGEMM", 100, 50),
		"LUD":   mk("LUD", 200, 100),
	}
	got := trimLines(Table2(results).String())
	want := trimLines(`Table 2 — extrapolated mean days between events at machine scale
Benchmark  Event  FIT     Trinity 19k [days]  Exascale 190k [days]
--------------------------------------------------------------------
DGEMM      SDC    1000.0  2.2                 0.2
DGEMM      DUE    500.0   4.4                 0.4
LUD        SDC    2000.0  1.1                 0.1
LUD        DUE    1000.0  2.2                 0.2`)
	if got != want {
		t.Fatalf("Table 2 render drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// trimLines drops trailing per-line whitespace so golden strings survive
// editors that strip it from source files.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}

// TestRecommendationsGolden pins the mitigation table render: control (80%
// harmful) ranks above matrix (60%), both clear the half-of-top cut, and
// each carries its §6.1 catalogue advice.
func TestRecommendationsGolden(t *testing.T) {
	res := &core.CampaignResult{
		Benchmark: "DGEMM",
		ByRegion: map[state.Region]core.OutcomeCounts{
			"control": {Masked: 20, SDC: 30, DUECrash: 50},
			"matrix":  {Masked: 40, SDC: 50, DUECrash: 10},
		},
	}
	got := trimLines(Recommendations(res, 10).String())
	want := trimLines(`Mitigation recommendations — DGEMM (paper §6.1)
Region   Technique                                                                          Rationale
------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
control  selective duplication with comparison (DWC) on control variables                   small footprint, high DUE share; full ECC is overkill where a few cells dominate harm (paper §6 DGEMM)
matrix   algorithm-based fault tolerance (ABFT) checksums or residue (mod-3/mod-15) checks  algebraic kernels can verify linear identities in O(n²); ABFT corrects single/line/random patterns in O(1) (paper §4.3, §6.1)`)
	if got != want {
		t.Fatalf("Recommendations render drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestScales: a figure counts what the sweep ran. Figure 4's N column is a
// benchmark's trials summed over its fault-model cells, so a sweep of 8
// injections per cell reads 32 over the four models.
func TestScales(t *testing.T) {
	results := tiny(t, fleet.Sweep{Benchmarks: []string{"DGEMM"}, N: 8}).MergedFor(state.ByFrameThenVariable)
	f4 := Figure4(results)
	if len(f4.Rows) != 1 {
		t.Fatalf("Figure 4 has %d rows for one benchmark:\n%s", len(f4.Rows), f4)
	}
	if row := f4.Rows[0]; row[0] != "DGEMM" || row[len(row)-1] != "32" {
		t.Fatalf("Figure 4 row %q, want DGEMM with N 32", row)
	}
}
