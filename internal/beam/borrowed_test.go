package beam_test

import (
	"reflect"
	"testing"

	"phirel/internal/beam"
	"phirel/internal/bench"
	"phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/state"
)

// A cell is one campaign of either class with its records observed; it
// returns the result and the records as one []any. Run on a list it
// borrows the list's runner; run on nil it builds a fresh one.
type cell func(rs *bench.Runners) (kept any, lastOutcome string)

const borrowBenchSeed = 1

func injectionCell(t *testing.T, name string, m fault.Model, p state.Policy, seed uint64, n int) cell {
	return func(rs *bench.Runners) (any, string) {
		t.Helper()
		var recs []core.InjectionRecord
		res, err := core.RunCampaign(core.CampaignConfig{
			Benchmark: name, N: n, Models: []fault.Model{m}, Policy: p,
			Seed: seed, BenchSeed: borrowBenchSeed, Workers: 1, Runners: rs,
			Observe: func(r core.InjectionRecord) { recs = append(recs, r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return []any{res, recs}, recs[len(recs)-1].Outcome
	}
}

func noECCBeamCell(t *testing.T, name string, seed uint64, runs int) cell {
	return func(rs *bench.Runners) (any, string) {
		t.Helper()
		var recs []beam.Record
		res, err := beam.Run(beam.Config{
			Benchmark: name, Runs: runs, Seed: seed, BenchSeed: borrowBenchSeed,
			Workers: 1, DisableECC: true, Runners: rs,
			Observe: func(r beam.Record) { recs = append(recs, r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return []any{res, recs}, recs[len(recs)-1].Outcome
	}
}

// TestBorrowedRunnerEqualsFresh is the gate under sharing golden-run runners
// between cells: whatever cell A did on a runner — another fault model,
// another policy, another seed, the other campaign class, a last trial that
// hung or crashed mid-phase — cell B on the handed-back runner must produce
// exactly the records it produces on a runner nobody used, and the runner's
// golden re-run must still equal its golden output.
func TestBorrowedRunnerEqualsFresh(t *testing.T) {
	scoutN, aN, bN := 60, 12, 25
	if testing.Short() {
		scoutN, aN, bN = 40, 6, 10
	}
	endings := map[string]int{}
	for _, name := range all.Suite {
		// Scout cell A's stream once for a trial that hangs and one that
		// crashes, so A can be cut to end on either.
		scoutModel, scoutPolicy, scoutSeed := fault.Random, state.ByVariable, uint64(0xa11ce)
		kept, _ := injectionCell(t, name, scoutModel, scoutPolicy, scoutSeed, scoutN)(nil)
		cuts := map[string]int{}
		for i, rec := range kept.([]any)[1].([]core.InjectionRecord) {
			if o := rec.Outcome; (o == bench.DUEHang.String() || o == bench.DUECrash.String()) && cuts[o] == 0 {
				cuts[o] = i + 1
			}
		}

		type pair struct {
			label string
			a, b  cell
			// aEnds, when set, is the outcome A's last trial must have.
			aEnds string
		}
		var pairs []pair
		for i, m := range fault.Models {
			// A differs from B in model, policy and seed.
			p := pair{
				label: "inject " + m.String() + " after inject",
				a:     injectionCell(t, name, fault.Models[(i+1)%len(fault.Models)], state.ByBytes, 0xbeef+uint64(i), aN),
				b:     injectionCell(t, name, m, state.ByFrameThenVariable, 0xfeed+uint64(i), bN),
			}
			// Two of the four follow an A that ends in an abort.
			if o := []string{"", bench.DUEHang.String(), bench.DUECrash.String(), ""}[i]; o != "" && cuts[o] > 0 {
				p.label += " ending " + o
				p.a = injectionCell(t, name, scoutModel, scoutPolicy, scoutSeed, cuts[o])
				p.aEnds = o
			}
			pairs = append(pairs, p)
		}
		pairs = append(pairs,
			pair{
				label: "no-ECC beam after inject",
				a:     injectionCell(t, name, fault.Zero, state.ByVariable, 0xc0de, aN),
				b:     noECCBeamCell(t, name, 0xd00d, 2*bN),
			},
			pair{
				label: "inject after no-ECC beam",
				a:     noECCBeamCell(t, name, 0xd00e, 2*aN),
				b:     injectionCell(t, name, fault.Double, state.ByFrameThenVariable, 0xc0df, bN),
			})

		for _, p := range pairs {
			rs := bench.NewRunners()
			for i := 0; i < 3; i++ { // A, B and the golden re-run below
				rs.Expect(name, borrowBenchSeed)
			}
			_, aEnd := p.a(rs)
			if p.aEnds != "" && aEnd != p.aEnds {
				t.Fatalf("%s: %s: cell A ended %s, want %s", name, p.label, aEnd, p.aEnds)
			}
			endings[aEnd]++
			if rs.Idle() != 1 {
				t.Fatalf("%s: %s: cell A did not hand its runner back", name, p.label)
			}
			borrowed, _ := p.b(rs)
			if rs.Idle() != 1 {
				t.Fatalf("%s: %s: cell B did not run on the handed-back runner", name, p.label)
			}
			fresh, _ := p.b(nil)
			if !reflect.DeepEqual(borrowed, fresh) {
				t.Errorf("%s: %s: records on a borrowed runner differ from a fresh runner's", name, p.label)
			}
			r, err := rs.Get(name, borrowBenchSeed)
			if err != nil {
				t.Fatal(err)
			}
			if again := r.RunGolden(); again.Status != bench.Completed || !bench.CompareExact(r.Golden, again.Output) {
				t.Errorf("%s: %s: the handed-back runner's golden re-run differs from its golden output", name, p.label)
			}
		}
	}
	for _, o := range []string{bench.DUEHang.String(), bench.DUECrash.String()} {
		if endings[o] == 0 {
			t.Errorf("no kernel's cell A ended %s: the abort leg went unexercised", o)
		}
	}
	t.Logf("cell A endings: %v", endings)
}
