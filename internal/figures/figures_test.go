package figures

import (
	"strings"
	"testing"

	"phirel/internal/beam"
	"phirel/internal/core"
	"phirel/internal/state"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{BeamRuns: 400, Injections: 48, Workers: 4, Seed: 5, BenchSeed: 1}
}

func TestBeamFiguresEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results, err := BeamResults(tiny())
	if err != nil {
		t.Fatal(err)
	}
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
	results, err := CampaignResults(tiny(), state.ByFrameThenVariable)
	if err != nil {
		t.Fatal(err)
	}
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

// TestScales: Quick is a CI size, below the paper's 10,000 injections per
// cell, yet every campaign it sizes runs trials.
func TestScales(t *testing.T) {
	q := Quick()
	if q.Injections >= 10000 || q.BeamRuns >= 40000 {
		t.Fatalf("Quick %+v is not below the paper-grade sizes", q)
	}
	if q.Injections <= 0 || q.BeamRuns <= 0 || q.Workers <= 0 {
		t.Fatalf("Quick %+v sizes a campaign with nothing to run", q)
	}
}
