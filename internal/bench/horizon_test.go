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

// TestHorizonBuiltByFirstStrikeOrTrial: a key builds one horizon, whichever
// cell kind asks first. A beam cell and an injection cell on one list, in
// either order, leave the key profiled by the first of them, once: the
// second cell's runners hold the horizon the first built, and every runner
// of the key holds the same shared state.
func TestHorizonBuiltByFirstStrikeOrTrial(t *testing.T) {
	beamCell := func(rs *bench.Runners) error {
		_, err := beam.Run(beam.Config{Benchmark: "NW", Runs: 50, Seed: 3, BenchSeed: 1, Workers: 2, DisableECC: true, Runners: rs})
		return err
	}
	injectionCell := func(rs *bench.Runners) error {
		_, err := core.RunCampaign(core.CampaignConfig{Benchmark: "NW", N: 5, Seed: 3, BenchSeed: 1, Workers: 2, Runners: rs})
		return err
	}
	for _, order := range []struct {
		name          string
		first, second func(*bench.Runners) error
	}{{"beam first", beamCell, injectionCell}, {"injection first", injectionCell, beamCell}} {
		t.Run(order.name, func(t *testing.T) {
			rs := bench.NewRunners()
			for i := 0; i < 10; i++ {
				rs.Expect("NW", 1) // more than the test asks for: the key stays declared
			}
			get := func() *bench.Runner {
				t.Helper()
				r, err := rs.Get("NW", 1)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			if err := order.first(rs); err != nil {
				t.Fatal(err)
			}
			r := get()
			hz := r.Horizon()
			rs.Put(r)
			if !r.Profiled() {
				t.Fatal("the first cell left its key unprofiled")
			}
			if err := order.second(rs); err != nil {
				t.Fatal(err)
			}
			a, b := get(), get()
			defer rs.Put(a)
			defer rs.Put(b)
			if a.Horizon() != hz || b.Horizon() != hz || !a.SharesKey(b) {
				t.Fatal("the second cell profiled the key again, or two runners of one key hold their own state")
			}
		})
	}
}
