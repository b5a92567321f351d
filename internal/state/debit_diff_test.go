package state_test

import (
	"reflect"
	"sync"
	"testing"

	"phirel/internal/beam"
	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// diffDelays are the arm-delay bounds of the differential trials, with the
// number of trials run at each per fault model. The campaign default
// exercises what artifacts contain; the small bound makes the cold bound
// cells (a handful of loads per tile) fire after a few debits, and the large
// one outlasts whole DGEMM tiles (49 408 kCur loads), so every entry of a
// kernel's load-count table is debited and then fired.
var diffDelays = []struct{ max, trials int }{{core.DefaultArmDelayMax, 150}, {32, 30}, {1 << 18, 30}}

// kernelRecords runs the differential workload of one kernel: seeded
// InjectOne trials under every fault model and delay bound, then a beam
// campaign without ECC (the arm whose control effects reach the cells).
func kernelRecords(name string) ([]core.InjectionRecord, []beam.Record, error) {
	inj, err := core.NewInjector(name, 1, state.ByFrameThenVariable)
	if err != nil {
		return nil, nil, err
	}
	var recs []core.InjectionRecord
	for _, m := range fault.Models {
		for _, d := range diffDelays {
			inj.ArmDelayMax = d.max
			for i := 0; i < d.trials; i++ {
				seed := stats.Mix64(uint64(m)<<32|uint64(d.max), uint64(i))
				recs = append(recs, inj.InjectOne(m, stats.NewRNG(seed)))
			}
		}
	}
	res, err := beam.Run(beam.Config{Benchmark: name, Runs: 200, Seed: 13, BenchSeed: 1,
		Workers: 1, DisableECC: true, KeepRecords: true})
	if err != nil {
		return nil, nil, err
	}
	return recs, res.Records, nil
}

// TestDebitMatchesPerformedLoads checks the debited fast paths by
// construction rather than by frozen snapshot: with the seam set, every lane
// owning an armed cell performs all its loads in the cell-driven loop, and
// every record must equal the one from the normal run that debits them.
// Only the trials that fire reach a kernel here: InjectOne decides the
// never-firing ones from the runner's horizon without running them, so the
// runs in which a cell stays armed to the end are TestHorizonBoundary's (and
// the beam records', whose arming consults no horizon).
func TestDebitMatchesPerformedLoads(t *testing.T) {
	type out struct {
		inj  []core.InjectionRecord
		beam []beam.Record
		err  error
	}
	names := bench.Names()
	run := func(refuse bool) []out {
		state.SetRefuseDebit(refuse)
		defer state.SetRefuseDebit(false)
		outs := make([]out, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := &outs[i]
				o.inj, o.beam, o.err = kernelRecords(name)
			}()
		}
		wg.Wait()
		return outs
	}
	debited, performed := run(false), run(true)
	for i, name := range names {
		d, p := debited[i], performed[i]
		if d.err != nil || p.err != nil {
			t.Fatalf("%s: %v / %v", name, d.err, p.err)
		}
		fired := 0
		for j := range d.inj {
			if d.inj[j].Fired {
				fired++
			}
			if !reflect.DeepEqual(d.inj[j], p.inj[j]) {
				t.Fatalf("%s injection %d:\n debited   %+v\n performed %+v", name, j, d.inj[j], p.inj[j])
			}
		}
		if !reflect.DeepEqual(d.beam, p.beam) {
			t.Fatalf("%s: beam records differ between debited and performed loads", name)
		}
		t.Logf("%s: %d injections (%d fired) and %d beam runs agree", name, len(d.inj), fired, len(d.beam))
	}
}

// armedRun arms one site at one tick and returns everything the run shows.
func armedRun(run *bench.Runner, site state.Armable, tick, delay int, seed uint64) (bench.RawResult, state.Deferred) {
	var def *state.Deferred
	res := run.RunInjected(tick, func() { def = site.Arm(delay, fault.Random, stats.NewRNG(seed)) })
	res.Output = res.Output.Clone()
	return res, *def
}

// TestDebitMatchesPerformedLoadsPerCell is the same comparison below the
// injector, where nothing is left to the site-selection policy: every
// armable cell of every kernel is armed at seeded ticks with delays spread
// over 2^0..2^18 loads, and the whole run — status, message, work, every
// output value, the deferred report — must not depend on whether the loads
// before the fire were debited or performed.
func TestDebitMatchesPerformedLoadsPerCell(t *testing.T) {
	defer state.SetRefuseDebit(false)
	for _, name := range bench.Names() {
		b, err := bench.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		run, err := bench.NewRunner(b)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(7)
		for _, s := range b.Registry().Live() {
			site, ok := s.(state.Armable)
			if !ok {
				continue
			}
			for i := 0; i < 6; i++ {
				tick, delay, seed := r.Intn(run.TotalTicks), r.Intn(1<<(3*i+4)), r.Uint64()
				state.SetRefuseDebit(false)
				debited, dDef := armedRun(run, site, tick, delay, seed)
				state.SetRefuseDebit(true)
				performed, pDef := armedRun(run, site, tick, delay, seed)
				same := bench.CompareExact(debited.Output, performed.Output)
				debited.Output, performed.Output = bench.Output{}, bench.Output{}
				if !same || !reflect.DeepEqual(debited, performed) || dDef != pDef {
					t.Fatalf("%s %s armed at tick %d, delay %d (outputs equal: %v):\n debited   %+v %+v\n performed %+v %+v",
						name, site.Name(), tick, delay, same, debited, dDef, performed, pDef)
				}
			}
		}
	}
}

// TestHorizonBoundary holds the runner's loads-left table to the kernels
// one load at a time, below the injector: every armable cell of every
// kernel, armed at seeded ticks with one load less than the table says it
// has left, must fire, and armed with exactly that many must not, in a run
// that completes with the golden output — whether the loads before are
// debited or performed. An entry off by one in either direction fails one
// of the two. These are also the runs in which a cell stays armed to the
// end, which campaign trials no longer contain.
func TestHorizonBoundary(t *testing.T) {
	defer state.SetRefuseDebit(false)
	for _, name := range bench.Names() {
		b, err := bench.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		run, err := bench.NewRunner(b)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(11)
		cells, fires := 0, 0
		for _, tick := range []int{0, r.Intn(run.TotalTicks), r.Intn(run.TotalTicks), run.TotalTicks - 1} {
			for _, v := range run.LiveAt(tick) {
				if !v.Armable {
					continue
				}
				cells++
				for _, refuse := range []bool{false, true} {
					state.SetRefuseDebit(refuse)
					arm := func(delay int) (bench.RawResult, *state.Deferred) {
						var def *state.Deferred
						res := run.RunInjected(tick, func() {
							def = run.Site(v).(state.Armable).Arm(delay, fault.Random, stats.NewRNG(uint64(tick)))
						})
						return res, def
					}
					if v.LoadsLeft > 0 {
						fires++
						if _, def := arm(v.LoadsLeft - 1); !def.Fired {
							t.Fatalf("%s %s at tick %d (debits refused: %v): %d loads left, but a delay of %d never fired",
								name, v.Name, tick, refuse, v.LoadsLeft, v.LoadsLeft-1)
						}
					}
					res, def := arm(v.LoadsLeft)
					if def.Fired || res.Status != bench.Completed || !bench.CompareExact(run.Golden, res.Output) {
						t.Fatalf("%s %s at tick %d (debits refused: %v): %d loads left, but a delay of %d fired (%v) or changed the run (%s %s)",
							name, v.Name, tick, refuse, v.LoadsLeft, v.LoadsLeft, def.Fired, res.Status, res.PanicMsg)
					}
				}
			}
		}
		t.Logf("%s: %d (cell, tick) pairs hold on both sides, %d with loads left", name, cells, fires/2)
	}
}
