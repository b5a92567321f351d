package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"phirel/internal/analysis"
	"phirel/internal/beam"
	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/phi"
	"phirel/internal/state"
)

var update = flag.Bool("update", false, "rewrite golden files")

func findGroup(t *testing.T, groups []Group, name string) Group {
	t.Helper()
	for _, g := range groups {
		if g.Name == name {
			return g
		}
	}
	t.Fatalf("no group %q in %+v", name, groups)
	return Group{}
}

// wantRate asserts exact float equality between a snapshot Rate and the
// post-hoc analysis fit it must reproduce — bit-for-bit, not within an
// epsilon, because both sides are required to run the identical
// analysis.RateFITEstimate arithmetic on the identical integer tallies.
func wantRate(t *testing.T, label string, got Rate, want analysis.FITEstimate) {
	t.Helper()
	if got.FIT != want.FIT || got.FITLo != want.CI.Lo || got.FITHi != want.CI.Hi {
		t.Fatalf("%s: monitor (%v [%v, %v]) != post-hoc fit (%v [%v, %v])",
			label, got.FIT, got.FITLo, got.FITHi, want.FIT, want.CI.Lo, want.CI.Hi)
	}
	if got.K != want.K || got.N != want.N {
		t.Fatalf("%s: tallies %d/%d, want %d/%d", label, got.K, got.N, want.K, want.N)
	}
}

// TestBeamStreamMatchesPostHocFit is the correctness anchor for the beam
// class: a monitor observing a fixed-seed campaign's records, from four
// workers at once, must end on exactly the FIT estimate the finished
// beam.Result computes post hoc.
func TestBeamStreamMatchesPostHocFit(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := beam.Run(beam.Config{
		Benchmark: "DGEMM", Runs: 400, Seed: 7, BenchSeed: 1, Workers: 4, Observe: m.ObserveBeam,
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	if snap.Trials != res.Runs {
		t.Fatalf("monitor saw %d trials, campaign ran %d", snap.Trials, res.Runs)
	}
	bg := findGroup(t, snap.Benchmarks, "DGEMM")
	wantRate(t, "benchmark SDC", bg.SDC, res.SDCFIT())
	wantRate(t, "benchmark DUE", bg.DUE, res.DUEFIT())
	// One benchmark means aggregate and model groups carry the same tally.
	wantRate(t, "aggregate SDC", snap.Aggregate.SDC, res.SDCFIT())
	mg := findGroup(t, snap.Models, BeamModel)
	wantRate(t, "beam-model SDC", mg.SDC, res.SDCFIT())
	if len(snap.Regions) != 0 {
		t.Fatalf("beam records produced an AVF region breakdown: %+v", snap.Regions)
	}
}

// TestInjectionStreamMatchesPostHocFit anchors the injection class: the
// estimate of a monitor observing the campaign's records from four
// workers at once equals the analytical fit of the finished campaign's
// tallies under the same device rate, and the AVF region breakdown
// partitions the harmful FIT.
func TestInjectionStreamMatchesPostHocFit(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCampaign(core.CampaignConfig{
		Benchmark: "DGEMM", N: 300, Seed: 5, BenchSeed: 1, Workers: 4, Observe: m.ObserveInjection,
	})
	if err != nil {
		t.Fatal(err)
	}

	profile, err := phi.ProfileFor("DGEMM")
	if err != nil {
		t.Fatal(err)
	}
	rate := phi.NewKNC3120A().RawFaultRate(profile, analysis.NaturalFlux)
	snap := m.Snapshot()
	wantRate(t, "aggregate SDC", snap.Aggregate.SDC,
		analysis.RateFITEstimate(rate, res.Outcomes.SDC, res.N))
	wantRate(t, "aggregate DUE", snap.Aggregate.DUE,
		analysis.RateFITEstimate(rate, res.Outcomes.DUE(), res.N))
	for model, oc := range res.ByModel {
		mg := findGroup(t, snap.Models, model.String())
		wantRate(t, "model "+model.String()+" SDC", mg.SDC,
			analysis.RateFITEstimate(rate, oc.SDC, oc.Total()))
	}

	// Regions partition the injection trials, and their FIT contributions
	// sum to the total harmful FIT (within float summation order).
	var regTrials int
	var fitSum float64
	for _, r := range snap.Regions {
		regTrials += r.Trials
		fitSum += r.FIT
		oc := res.ByRegion[state.Region(r.Name)]
		wantAVF := float64(oc.SDC+oc.DUE()) / float64(oc.Total())
		if r.Trials != oc.Total() || r.AVF != wantAVF {
			t.Fatalf("region %s: trials %d AVF %v, want %d %v",
				r.Name, r.Trials, r.AVF, oc.Total(), wantAVF)
		}
	}
	if regTrials != res.N {
		t.Fatalf("region trials sum to %d, campaign ran %d", regTrials, res.N)
	}
	harmful := rate * 1e9 * float64(res.Outcomes.SDC+res.Outcomes.DUE()) / float64(res.N)
	if diff := fitSum - harmful; diff > 1e-9*harmful || diff < -1e-9*harmful {
		t.Fatalf("region FITs sum to %v, harmful FIT is %v", fitSum, harmful)
	}
}

// TestIncrementalEqualsBatch is the tentpole property: streaming every
// record of a mixed injection + beam sweep through the fleet observer
// hooks yields a snapshot identical to one batch fold of the finished
// artifact.
func TestIncrementalEqualsBatch(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := fleet.Sweep{
		Benchmarks: []string{"DGEMM", "LUD"},
		Models:     []fault.Model{fault.Single, fault.Zero},
		N:          25,
		Seed:       97, BenchSeed: 1, Workers: 4,
		BeamRuns:       40,
		BeamBenchmarks: []string{"DGEMM"},
	}
	s.ObserveInjection = m.ObserveInjection
	s.ObserveBeam = m.ObserveBeam
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := FromSweep(res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); !reflect.DeepEqual(got, batch) {
		t.Fatalf("incremental snapshot differs from batch fold:\n%+v\nvs\n%+v", got, batch)
	}
}

// TestSnapshotCallbackCadence checks the periodic OnSnapshot hook: one
// serialised callback per SnapshotEvery records, each covering exactly the
// records observed so far.
func TestSnapshotCallbackCadence(t *testing.T) {
	var got []int
	m, err := New(Config{
		SnapshotEvery: 10,
		OnSnapshot:    func(s Snapshot) { got = append(got, s.Trials) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 95; i++ {
		m.ObserveInjection(core.InjectionRecord{
			Benchmark: "DGEMM", Model: "Single", Region: "matrix", Outcome: "SDC",
		})
	}
	want := []int{10, 20, 30, 40, 50, 60, 70, 80, 90}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("callback trial counts %v, want %v", got, want)
	}
}

// TestCIWidthShrinks checks the statistical behaviour an operator watches
// the monitor for: on fixed seeds, ten times the trials tightens the
// Wilson interval around the SDC FIT estimate.
func TestCIWidthShrinks(t *testing.T) {
	width := func(runs int) float64 {
		m, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := beam.Run(beam.Config{
			Benchmark: "DGEMM", Runs: runs, Seed: 1, BenchSeed: 1, Workers: 4, Observe: m.ObserveBeam,
		}); err != nil {
			t.Fatal(err)
		}
		agg := m.Snapshot().Aggregate
		if agg.SDC.K == 0 {
			t.Fatalf("no SDC events in %d runs; widen the fixture", runs)
		}
		return agg.SDC.FITHi - agg.SDC.FITLo
	}
	small, large := width(200), width(2000)
	if large >= small {
		t.Fatalf("CI width grew with trials: %v at 200 runs, %v at 2000", small, large)
	}
}

// TestConvergenceSeries checks the replayed convergence series: capped
// length, strictly increasing cell counts, monotone trial counts, and a
// final point identical to the batch fold of the whole artifact.
func TestConvergenceSeries(t *testing.T) {
	s := fleet.Sweep{
		Benchmarks: []string{"DGEMM", "LUD", "NW"},
		Models:     []fault.Model{fault.Single, fault.Zero},
		N:          20,
		Seed:       41, BenchSeed: 1, Workers: 4,
		BeamRuns:       30,
		BeamBenchmarks: []string{"DGEMM", "LUD"},
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	points, err := Convergence(res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Cells) + len(res.BeamCells)
	if len(points) == 0 || len(points) > maxConvergencePoints {
		t.Fatalf("series has %d points (cap %d)", len(points), maxConvergencePoints)
	}
	last := 0
	for _, p := range points {
		if p.Cells <= last {
			t.Fatalf("cell counts not increasing: %d after %d", p.Cells, last)
		}
		last = p.Cells
	}
	if last != total {
		t.Fatalf("final point covers %d cells, artifact has %d", last, total)
	}
	batch, err := FromSweep(res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points[len(points)-1].Snapshot, batch) {
		t.Fatal("final convergence point differs from FromSweep of the artifact")
	}
}

// TestArrheniusAcceleration checks the temperature scaling: above the
// reference temperature the acceleration factor exceeds 1 and every
// accelerated estimate is the raw one scaled by exactly that factor.
func TestArrheniusAcceleration(t *testing.T) {
	m, err := New(Config{TempK: 330})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		out := "Masked"
		if i%3 == 0 {
			out = "SDC"
		}
		m.ObserveInjection(core.InjectionRecord{
			Benchmark: "DGEMM", Model: "Single", Region: "matrix", Outcome: out,
		})
	}
	snap := m.Snapshot()
	wantAF := phi.NewKNC3120A().AccelerationFactor(330)
	if snap.AccelFactor != wantAF || wantAF <= 1 {
		t.Fatalf("acceleration factor %v, want %v (> 1)", snap.AccelFactor, wantAF)
	}
	if got, want := snap.Aggregate.SDC.AccelFIT, snap.Aggregate.SDC.FIT*wantAF; got != want {
		t.Fatalf("accelerated SDC FIT %v, want %v", got, want)
	}
	for _, r := range snap.Regions {
		if r.AccelFIT != r.FIT*wantAF {
			t.Fatalf("region %s: accelerated FIT %v, want %v", r.Name, r.AccelFIT, r.FIT*wantAF)
		}
	}
}

func TestUnknownDeviceRejected(t *testing.T) {
	if _, err := New(Config{Device: "KNC9999X"}); err == nil {
		t.Fatal("unknown device key accepted")
	}
}

// TestSnapshotGolden locks the snapshot wire form. The fixture is built
// from hand-written records, so the golden depends only on the monitor's
// own arithmetic, the device constants, and the JSON schema — not on any
// campaign implementation detail. Regenerate with -update after a
// deliberate, versioned schema change.
func TestSnapshotGolden(t *testing.T) {
	m, err := New(Config{TempK: 330, Device: "KNC3120A"})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		bench, model, region, outcome string
	}
	recs := []rec{
		{"DGEMM", "Single", "matrix", "SDC"},
		{"DGEMM", "Single", "matrix", "Masked"},
		{"DGEMM", "Zero", "control", "DUE-crash"},
		{"DGEMM", "Zero", "matrix", "Masked"},
		{"LUD", "Single", "matrix", "SDC"},
		{"LUD", "Zero", "control", "Masked"},
	}
	for _, r := range recs {
		m.ObserveInjection(core.InjectionRecord{
			Benchmark: r.bench, Model: r.model,
			Region: state.Region(r.region), Outcome: r.outcome,
		})
	}
	m.ObserveBeam(beam.Record{Benchmark: "DGEMM", Outcome: "SDC"})
	m.ObserveBeam(beam.Record{Benchmark: "DGEMM", Outcome: "Masked"})

	got, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot wire form drifted from golden (run with -update after a deliberate schema change):\n%s", got)
	}
}
