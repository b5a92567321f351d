package beam

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"phirel/internal/analysis"
	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/phi"
	"phirel/internal/stats"
)

func TestBeamSmallCampaign(t *testing.T) {
	res, err := Run(Config{Benchmark: "DGEMM", Runs: 3000, Seed: 1, BenchSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if total := assertBeamConsistent(t, res); total != 3000 {
		t.Fatalf("outcome total %d != runs", total)
	}
	if res.CorrectedByECC < 2000 {
		t.Fatalf("ECC corrected only %d; SRAM faults should dominate", res.CorrectedByECC)
	}
	if res.Outcomes.SDC == 0 {
		t.Fatal("no SDCs in 3000 accelerated runs")
	}
	if res.Outcomes.DUEMCA == 0 {
		t.Fatal("no MCA DUEs; double-bit path unexercised")
	}
}

// observe sets cfg.Observe to keep every record at Seq−Offset and returns
// the slice. Workers write disjoint elements, so it needs no lock.
func observe(cfg *Config) []Record {
	recs := make([]Record, cfg.Runs)
	off := cfg.Offset
	cfg.Observe = func(r Record) { recs[r.Seq-off] = r }
	return recs
}

// The acceptance shape for the unified engine: the whole Result — tallies,
// pattern split, Seq-ordered RelErrs — and every observed record must be
// identical for any worker count.
func TestBeamDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []any {
		cfg := Config{Benchmark: "DGEMM", Runs: 400, Seed: 7, BenchSeed: 1, Workers: workers}
		recs := observe(&cfg)
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []any{r, recs}
	}
	base := run(1)
	for _, workers := range []int{3, 8} {
		if other := run(workers); !reflect.DeepEqual(base, other) {
			t.Fatalf("workers=%d: Result or records differ from workers=1", workers)
		}
	}
}

// assertBeamConsistent checks every partition of a beam result sums to the
// completed-run count — the invariant cancellation must not break.
func assertBeamConsistent(t *testing.T, res *Result) int {
	t.Helper()
	total := res.Outcomes.Total()
	if res.Runs != total {
		t.Fatalf("Runs %d != outcome total %d", res.Runs, total)
	}
	patterns := 0
	for _, n := range res.SDCByPattern {
		patterns += n
	}
	if patterns != res.Outcomes.SDC {
		t.Fatalf("pattern partition sums to %d, want SDC count %d", patterns, res.Outcomes.SDC)
	}
	if len(res.RelErrs) != res.Outcomes.SDC {
		t.Fatalf("%d rel errs for %d SDCs", len(res.RelErrs), res.Outcomes.SDC)
	}
	if res.CorrectedByECC > res.Outcomes.Masked {
		t.Fatalf("corrected %d exceeds masked %d", res.CorrectedByECC, res.Outcomes.Masked)
	}
	return total
}

func TestBeamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const runs = 8000
	var observed atomic.Int64
	res, err := RunContext(ctx, Config{
		Benchmark: "DGEMM", Runs: runs, Seed: 21, BenchSeed: 1, Workers: 4,
		Observe: func(Record) { observed.Add(1) },
		Progress: func(done, total int) {
			if done >= 80 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial result")
	}
	total := assertBeamConsistent(t, res)
	if total == 0 {
		t.Fatal("cancelled before any run completed")
	}
	if total >= runs {
		t.Fatalf("campaign ran to completion (%d) despite cancellation", total)
	}
	if int(observed.Load()) != total {
		t.Fatalf("%d records observed for %d completed runs", observed.Load(), total)
	}
}

// TestBeamStreamMatchesRecords: the records a campaign hands its Observe
// hook, one per run, re-tally to the campaign's own result.
func TestBeamStreamMatchesRecords(t *testing.T) {
	cfg := Config{Benchmark: "DGEMM", Runs: 200, Seed: 33, BenchSeed: 1, Workers: 4}
	recs := observe(&cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shard{counts: Result{SDCByPattern: map[analysis.Pattern]int{}}}
	var relErrs []float64
	for i, rec := range recs {
		if rec.Seq != i || rec.Benchmark != "DGEMM" {
			t.Fatalf("record %d not observed: %+v", i, rec)
		}
		sh.fold(rec)
		if rec.OutcomeOf() == bench.SDC {
			relErrs = append(relErrs, rec.MaxRelErr)
		}
	}
	if sh.counts.Outcomes != res.Outcomes || sh.counts.CorrectedByECC != res.CorrectedByECC ||
		!reflect.DeepEqual(sh.counts.SDCByPattern, res.SDCByPattern) || !reflect.DeepEqual(relErrs, res.RelErrs) {
		t.Fatalf("observed records re-tally to %+v, campaign says %+v", sh, res)
	}
	if res.Outcomes.SDC == 0 {
		t.Fatal("fixture produced no SDCs; the pattern and RelErrs tallies went unchecked")
	}
}

func TestBeamRecordParsers(t *testing.T) {
	rec := Record{Outcome: "DUE-mca", Pattern: "Line"}
	if rec.OutcomeOf() != bench.DUEMCA {
		t.Fatal("outcome parse")
	}
	if rec.PatternOf() != analysis.PatternLine {
		t.Fatal("pattern parse")
	}
	bad := Record{Outcome: "???", Pattern: "???"}
	if bad.OutcomeOf() != bench.Masked || bad.PatternOf() != analysis.PatternNone {
		t.Fatal("fallback parses")
	}
}

func TestBeamECCAblation(t *testing.T) {
	on, err := Run(Config{Benchmark: "DGEMM", Runs: 1500, Seed: 3, BenchSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(Config{Benchmark: "DGEMM", Runs: 1500, Seed: 3, BenchSeed: 1, Workers: 4,
		DisableECC: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Outcomes.DUEMCA != 0 {
		t.Fatal("MCA DUEs with ECC disabled")
	}
	if off.Outcomes.SDC <= 2*on.Outcomes.SDC {
		t.Fatalf("disabling ECC should multiply SDCs: on=%d off=%d", on.Outcomes.SDC, off.Outcomes.SDC)
	}
	if off.CorrectedByECC != 0 {
		t.Fatal("corrected faults with ECC disabled")
	}
}

func TestBeamFITAccounting(t *testing.T) {
	res, err := Run(Config{Benchmark: "LUD", Runs: 2000, Seed: 5, BenchSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sdc := res.SDCFIT()
	if sdc.K != res.Outcomes.SDC || sdc.N != res.Runs {
		t.Fatal("FIT estimate counts wrong")
	}
	if sdc.FIT <= 0 || !(sdc.CI.Lo <= sdc.FIT && sdc.FIT <= sdc.CI.Hi) {
		t.Fatalf("FIT %v CI %v inconsistent", sdc.FIT, sdc.CI)
	}
	// Pattern FITs must sum to the SDC FIT.
	sum := 0.0
	for _, p := range analysis.Patterns {
		sum += res.PatternFIT(p).FIT
	}
	if diff := sum - sdc.FIT; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("pattern FITs sum %v != SDC FIT %v", sum, sdc.FIT)
	}
}

// Paper §2.1: fewer than 10% of corrupted executions have a single wrong
// element. Allow slack for the small sample.
func TestBeamMultiElementDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: statistical-power campaign")
	}
	res, err := Run(Config{Benchmark: "DGEMM", Runs: 6000, Seed: 11, BenchSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.SDC < 30 {
		t.Skipf("only %d SDCs; not enough for a share test", res.Outcomes.SDC)
	}
	share := res.SingleElementShare()
	if share.P > 0.35 {
		t.Fatalf("single-element SDCs are %.0f%%; multi-element errors must dominate", share.Percent())
	}
}

func TestBeamToleranceCurveMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: statistical-power campaign")
	}
	res, err := Run(Config{Benchmark: "HotSpot", Runs: 4000, Seed: 13, BenchSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	curve := res.ToleranceCurve(analysis.DefaultTolerances)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("tolerance curve not monotone: %v", curve)
		}
	}
	if res.Outcomes.SDC > 20 && curve[len(curve)-1] == 0 {
		t.Fatal("15% tolerance removed nothing; attenuation analysis broken")
	}
}

func TestBeamUnknownBenchmark(t *testing.T) {
	if _, err := Run(Config{Benchmark: "Ghost", Runs: 10}); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
	if _, err := Run(Config{Benchmark: "DGEMM", Runs: 0}); err == nil {
		t.Fatal("accepted zero runs")
	}
}

func TestEffectMapping(t *testing.T) {
	r := stats.NewRNG(17)
	seen := map[Effect]bool{}
	for i := 0; i < 500; i++ {
		for _, c := range []phi.Class{phi.VectorRegfile, phi.Pipeline, phi.Scheduler, phi.Interconnect, phi.SRAM} {
			seen[effectFor(c, r)] = true
		}
	}
	for _, e := range []Effect{EffectSingle, EffectVectorLanes, EffectCacheLine, EffectThreadTile, EffectControl} {
		if !seen[e] {
			t.Fatalf("effect %v never produced", e)
		}
		if e.String() == "" {
			t.Fatal("effect name")
		}
	}
}

func TestBeamAllBeamSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"CLAMR", "HotSpot", "LavaMD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Benchmark: name, Runs: 600, Seed: 19, BenchSeed: 1, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcomes.Masked+res.Outcomes.SDC+res.Outcomes.DUE() != 600 {
				t.Fatal("accounting")
			}
		})
	}
}
