package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

func TestOutcomeCounts(t *testing.T) {
	var c OutcomeCounts
	for _, o := range []bench.Outcome{bench.Masked, bench.Masked, bench.SDC,
		bench.DUECrash, bench.DUEHang, bench.DUEMCA} {
		c.Add(o)
	}
	if c.Total() != 6 || c.DUE() != 3 || c.Masked != 2 || c.SDC != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if c.SDCPVF().P != 1.0/6 || c.DUEPVF().P != 0.5 {
		t.Fatal("PVFs")
	}
	var d OutcomeCounts
	d.Merge(c)
	if d.Total() != 6 {
		t.Fatal("merge")
	}
}

// TestClassifyRunAllocatesNothing: classifying an SDC takes one pass over
// the output and builds no mismatch list, so a trial's classification
// allocates nothing whatever the damage.
func TestClassifyRunAllocatesNothing(t *testing.T) {
	const n = 64
	golden := bench.Output{Vals: make([]float64, n*n), Shape: state.Dims2(n, n)}
	for i := range golden.Vals {
		golden.Vals[i] = float64(i)
	}
	got := bench.Output{Vals: append([]float64(nil), golden.Vals...), Shape: golden.Shape}
	for _, i := range []int{n + 1, n + 2, 2*n + 1, 2*n + 2} { // a dense 2x2 block
		got.Vals[i] += 0.5
	}
	res := bench.RawResult{Status: bench.Completed, Output: got}
	o, p, relErr, corrupted := ClassifyRun(golden, res)
	if o != bench.SDC || p.String() != "Square" || corrupted != 4 || relErr != 0.5/float64(n+1) {
		t.Fatalf("ClassifyRun = %v %v %v %d, want SDC Square %v 4", o, p, relErr, corrupted, 0.5/float64(n+1))
	}
	if a := testing.AllocsPerRun(20, func() { ClassifyRun(golden, res) }); a != 0 {
		t.Errorf("%v allocations per ClassifyRun of an SDC, want 0", a)
	}
}

func TestInjectorSingleExperiment(t *testing.T) {
	inj, err := NewInjector("DGEMM", 1, state.ByBytes)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	rec := inj.InjectOne(fault.Random, rng)
	if rec.Benchmark != "DGEMM" || rec.Model != "Random" {
		t.Fatalf("record metadata: %+v", rec)
	}
	if rec.Site == "" {
		t.Fatal("no site picked")
	}
	if rec.Window < 0 || rec.Window >= inj.Bench.Windows() {
		t.Fatalf("window %d out of range", rec.Window)
	}
	if rec.Outcome == "" || rec.Pattern == "" {
		t.Fatal("outcome/pattern empty")
	}
}

func TestInjectorUnknownBenchmark(t *testing.T) {
	if _, err := NewInjector("Nope", 1, state.ByBytes); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
}

// observe sets cfg.Observe to keep every record at Seq−Offset and returns
// the slice. Workers write disjoint elements, so it needs no lock.
func observe(cfg *CampaignConfig) []InjectionRecord {
	recs := make([]InjectionRecord, cfg.N)
	off := cfg.Offset
	cfg.Observe = func(r InjectionRecord) { recs[r.Seq-off] = r }
	return recs
}

// TestCampaignDeterministicAcrossWorkers: the whole result and every
// observed record are identical for any worker count.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []any {
		cfg := CampaignConfig{Benchmark: "DGEMM", N: 60, Seed: 42, BenchSeed: 1, Workers: workers}
		recs := observe(&cfg)
		res, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []any{res, recs}
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("workers=8: result or records differ from workers=1")
	}
}

// assertConsistent checks that every partition of a result sums to the same
// completed-injection count — the invariant cancellation must not break.
func assertConsistent(t *testing.T, res *CampaignResult) int {
	t.Helper()
	total := res.Outcomes.Total()
	modelTotal := 0
	for _, c := range res.ByModel {
		modelTotal += c.Total()
	}
	if modelTotal != total {
		t.Fatalf("model partition sums to %d, want %d", modelTotal, total)
	}
	windowTotal := 0
	for _, w := range res.ByWindow {
		windowTotal += w.Total()
	}
	if windowTotal != total {
		t.Fatalf("window partition sums to %d, want %d", windowTotal, total)
	}
	regionTotal := 0
	for _, r := range res.ByRegion {
		regionTotal += r.Total()
	}
	if regionTotal != total {
		t.Fatalf("region partition sums to %d, want %d", regionTotal, total)
	}
	if res.FiredShare.N != total {
		t.Fatalf("fired share over %d injections, want %d", res.FiredShare.N, total)
	}
	if res.N != total {
		t.Fatalf("result N %d, want completed count %d", res.N, total)
	}
	return total
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 4000
	var observed atomic.Int64
	res, err := RunCampaign(ctx, CampaignConfig{
		Benchmark: "DGEMM", N: n, Seed: 21, BenchSeed: 1, Workers: 4,
		Observe: func(InjectionRecord) { observed.Add(1) },
		Progress: func(done, total int) {
			if done >= 40 {
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
	total := assertConsistent(t, res)
	if total == 0 {
		t.Fatal("cancelled before any injection completed")
	}
	if total >= n {
		t.Fatalf("campaign ran to completion (%d) despite cancellation", total)
	}
	if int(observed.Load()) != total {
		t.Fatalf("%d records observed for %d completed injections", observed.Load(), total)
	}
}

// TestCampaignStreamMatchesRecords: the records a campaign hands its
// Observe hook, one per injection, re-tally to the campaign's own result.
func TestCampaignStreamMatchesRecords(t *testing.T) {
	cfg := CampaignConfig{Benchmark: "DGEMM", N: 50, Seed: 33, BenchSeed: 1, Workers: 4}
	recs := observe(&cfg)
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := NewCampaignResult("DGEMM", cfg.Policy, 0, res.Windows)
	for i, rec := range recs {
		if rec.Seq != i || rec.Benchmark != "DGEMM" {
			t.Fatalf("record %d not observed: %+v", i, rec)
		}
		got.Fold(rec)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("observed records re-tally to %+v, campaign says %+v", got, res)
	}
}

func TestCampaignAccounting(t *testing.T) {
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Benchmark: "DGEMM", N: 80, Seed: 9, BenchSeed: 2, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total := assertConsistent(t, res); total != 80 {
		t.Fatalf("total %d != N", total)
	}
	if len(res.ByModel) != len(fault.Models) || len(res.ByWindow) != 5 {
		t.Fatalf("DGEMM campaign has %d models, %d windows", len(res.ByModel), len(res.ByWindow))
	}
}

func TestCampaignModelsRoundRobin(t *testing.T) {
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Benchmark: "DGEMM", N: 40, Seed: 3, BenchSeed: 1, Workers: 2,
		Models: []fault.Model{fault.Zero},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByModel[fault.Zero].Total() != 40 {
		t.Fatal("model restriction ignored")
	}
	if res.ByModel[fault.Single].Total() != 0 {
		t.Fatal("unexpected model present")
	}
}

func TestCampaignProducesHarmAndMasking(t *testing.T) {
	// A sanity check of the whole pipeline: a few hundred injections into
	// DGEMM must produce all three outcome classes (paper Fig. 4 shows
	// DGEMM at roughly 40% masked / 35% SDC / 25% DUE).
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Benchmark: "DGEMM", N: 300, Seed: 5, BenchSeed: 1, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.Masked == 0 {
		t.Fatal("no masked runs")
	}
	if res.Outcomes.SDC == 0 {
		t.Fatal("no SDCs")
	}
	if res.Outcomes.DUE() == 0 {
		t.Fatal("no DUEs")
	}
}

func TestCampaignInvalidConfig(t *testing.T) {
	if _, err := RunCampaign(context.Background(), CampaignConfig{Benchmark: "DGEMM", N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := RunCampaign(context.Background(), CampaignConfig{Benchmark: "Ghost", N: 5}); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
}

func TestCriticalityRanking(t *testing.T) {
	res := &CampaignResult{
		ByRegion: map[state.Region]OutcomeCounts{
			"matrix":  {Masked: 40, SDC: 50, DUECrash: 10},
			"control": {Masked: 20, SDC: 30, DUECrash: 50},
			"rare":    {Masked: 1},
		},
	}
	crit := res.Criticality(10)
	if len(crit) != 2 {
		t.Fatalf("criticality entries: %d", len(crit))
	}
	if crit[0].Region != "control" {
		t.Fatalf("most critical = %s, want control (80%% harmful)", crit[0].Region)
	}
	if crit[0].Harmful.P != 0.8 || crit[1].Harmful.P != 0.6 {
		t.Fatalf("harmful rates: %v %v", crit[0].Harmful.P, crit[1].Harmful.P)
	}
}

func TestRecommendations(t *testing.T) {
	res := &CampaignResult{
		ByRegion: map[state.Region]OutcomeCounts{
			"control":  {Masked: 20, SDC: 30, DUECrash: 50},
			"matrix":   {Masked: 40, SDC: 50, DUECrash: 10},
			"mystery":  {Masked: 30, SDC: 40, DUECrash: 5},
			"harmless": {Masked: 99, SDC: 1},
		},
	}
	recs := res.Recommend(10)
	if len(recs) < 2 {
		t.Fatalf("recommendations: %v", recs)
	}
	if recs[0].Region != "control" || recs[0].Technique == "" {
		t.Fatalf("first recommendation: %+v", recs[0])
	}
	// Unknown region gets the generic fallback.
	foundGeneric := false
	for _, r := range recs {
		if r.Region == "mystery" && r.Technique == genericAdvice.Technique {
			foundGeneric = true
		}
		if r.Region == "harmless" {
			t.Fatal("harmless region recommended")
		}
	}
	if !foundGeneric {
		t.Fatal("generic advice not applied to unknown region")
	}
}

func TestRecordParsers(t *testing.T) {
	rec := InjectionRecord{Outcome: "DUE-hang", Model: "Double", Pattern: "Square"}
	if rec.OutcomeOf() != bench.DUEHang {
		t.Fatal("outcome parse")
	}
	if rec.ModelOf() != fault.Double {
		t.Fatal("model parse")
	}
	if rec.PatternOf().String() != "Square" {
		t.Fatal("pattern parse")
	}
	bad := InjectionRecord{Outcome: "???", Model: "???", Pattern: "???"}
	if bad.OutcomeOf() != bench.Masked || bad.ModelOf() != fault.Single {
		t.Fatal("fallback parses")
	}
}

// Every benchmark must survive a small end-to-end campaign.
func TestCampaignAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := RunCampaign(context.Background(), CampaignConfig{
				Benchmark: name, N: 24, Seed: 11, BenchSeed: 1, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcomes.Total() != 24 {
				t.Fatalf("total %d", res.Outcomes.Total())
			}
		})
	}
}

// crashingBench counts its runs, each of which crashes.
type crashingBench struct {
	bench.Benchmark
	runs *atomic.Int64
}

func (c crashingBench) Run(*bench.Ctx) {
	c.runs.Add(1)
	panic("golden run crashes on purpose")
}

// TestCampaignReturnsRunners: every runner a campaign borrows is back in the
// list when the campaign returns, whichever way it leaves. A key whose one
// kernel run fails fails every Get of it with that run's error, and runs
// nothing more.
func TestCampaignReturnsRunners(t *testing.T) {
	const workers = 3
	// "flaky-DGEMM" is DGEMM, except that the failAt-th construction of a
	// case returns a benchmark whose golden run crashes.
	var builds, failAt, crashes atomic.Int64
	flaky := func(seed uint64) bench.Benchmark {
		b, err := bench.New("DGEMM", seed)
		if err != nil {
			panic(err)
		}
		if builds.Add(1) == failAt.Load() {
			return crashingBench{b, &crashes}
		}
		return b
	}
	t.Cleanup(func() { bench.Unregister("flaky-DGEMM") })
	for _, tc := range []struct {
		name     string
		n        int
		failAt   int64 // which construction crashes its golden run
		cancelAt int   // cancel once this many trials are done
		wantErr  bool
		wantIdle int
	}{
		{name: "completed", n: 30, wantIdle: workers},
		{name: "invalid N", n: 0, wantErr: true, wantIdle: 0},
		{name: "the key's one run fails", n: 30, failAt: 1, wantErr: true, wantIdle: 0},
		{name: "cancelled", n: 4000, cancelAt: 20, wantErr: true, wantIdle: workers},
	} {
		// Registering drops the name's resident key, so every case starts
		// from an empty set and its first Get makes the key's one run.
		bench.Unregister("flaky-DGEMM")
		bench.Register("flaky-DGEMM", flaky)
		rs := bench.NewRunners()
		for i := 0; i < workers+1; i++ { // one more than is taken, so Put keeps them
			rs.Expect("flaky-DGEMM", 1)
		}
		builds.Store(0)
		crashes.Store(0)
		failAt.Store(tc.failAt)
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunCampaign(ctx, CampaignConfig{
			Benchmark: "flaky-DGEMM", N: tc.n, Seed: 5, BenchSeed: 1, Workers: workers,
			Runners: rs,
			Progress: func(done, total int) {
				if tc.cancelAt > 0 && done >= tc.cancelAt {
					cancel()
				}
			},
		})
		cancel()
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		// The other workers of the key, whose benchmarks would run fine, get
		// the same error without running.
		for i := 0; tc.failAt > 0 && i < workers; i++ {
			if _, gerr := rs.Get("flaky-DGEMM", 1); !errors.Is(gerr, err) {
				t.Errorf("%s: Get %d returned %v, want the key's error %v", tc.name, i, gerr, err)
			}
		}
		if tc.failAt > 0 && crashes.Load() != 1 {
			t.Errorf("%s: the key ran its failing kernel %d times, want 1", tc.name, crashes.Load())
		}
		if got := rs.Idle(); got != tc.wantIdle {
			t.Errorf("%s: %d runners back in the list, want %d", tc.name, got, tc.wantIdle)
		}
	}
}
