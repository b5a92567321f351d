package bench_test

import (
	"testing"

	"phirel/internal/beam"
	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/core"
)

// TestHorizonStaysSmall: a runner keeps its horizon for as long as it lives,
// in worker processes whose whole heap is a few megabytes, so the six tables
// together must stay within 96 KB.
func TestHorizonStaysSmall(t *testing.T) {
	total := 0
	for _, name := range bench.Names() {
		b, err := bench.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		run, err := bench.NewRunner(b)
		if err != nil {
			t.Fatal(err)
		}
		n := run.HorizonBytes()
		t.Logf("%s: %d ticks, horizon %.1f KB", name, run.TotalTicks, float64(n)/1024)
		total += n
	}
	if total > 96<<10 {
		t.Fatalf("the six horizons hold %.1f KB, want at most 96", float64(total)/1024)
	}
}

// TestHorizonBuiltByInjectionOnly: the horizon is built by the first
// injected trial on a runner, not with the runner, so a beam cell borrowing
// the same runner from the list neither builds nor finds one until an
// injection cell has been there — and then it stays with the runner.
func TestHorizonBuiltByInjectionOnly(t *testing.T) {
	rs := bench.NewRunners()
	for i := 0; i < 6; i++ {
		rs.Expect("NW", 1)
	}
	profiled := func() bool {
		t.Helper()
		r, err := rs.Get("NW", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Put(r)
		return r.Profiled()
	}
	beamCell := func() {
		t.Helper()
		if _, err := beam.Run(beam.Config{Benchmark: "NW", Runs: 50, Seed: 3, BenchSeed: 1, Workers: 1, DisableECC: true, Runners: rs}); err != nil {
			t.Fatal(err)
		}
	}
	beamCell()
	if rs.Idle() != 1 || profiled() {
		t.Fatalf("after a beam cell the list holds %d runners, profiled: %v; want one, not profiled", rs.Idle(), profiled())
	}
	if _, err := core.RunCampaign(core.CampaignConfig{Benchmark: "NW", N: 5, Seed: 3, BenchSeed: 1, Workers: 1, Runners: rs}); err != nil {
		t.Fatal(err)
	}
	beamCell()
	if rs.Idle() != 1 || !profiled() {
		t.Fatalf("after an injection cell the list holds %d runners, profiled: %v; want the same one, profiled", rs.Idle(), profiled())
	}
}
