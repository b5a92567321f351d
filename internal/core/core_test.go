package core

import (
	"context"
	"reflect"
	"sort"
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

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *CampaignResult {
		res, err := RunCampaign(CampaignConfig{
			Benchmark: "DGEMM", N: 60, Seed: 42, BenchSeed: 1,
			Workers: workers, KeepRecords: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	b := run(8)
	if a.Outcomes != b.Outcomes {
		t.Fatalf("outcomes differ across worker counts: %+v vs %+v", a.Outcomes, b.Outcomes)
	}
	if !reflect.DeepEqual(a.ByModel, b.ByModel) {
		t.Fatalf("by-model tallies differ:\n%+v\n%+v", a.ByModel, b.ByModel)
	}
	if !reflect.DeepEqual(a.ByWindow, b.ByWindow) {
		t.Fatalf("by-window tallies differ:\n%+v\n%+v", a.ByWindow, b.ByWindow)
	}
	if !reflect.DeepEqual(a.ByRegion, b.ByRegion) {
		t.Fatalf("by-region tallies differ:\n%+v\n%+v", a.ByRegion, b.ByRegion)
	}
	if a.FiredShare != b.FiredShare {
		t.Fatalf("fired share differs: %+v vs %+v", a.FiredShare, b.FiredShare)
	}
	if len(a.Records) != 60 || len(b.Records) != 60 {
		t.Fatalf("record counts %d/%d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
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
	res, err := RunCampaignContext(ctx, CampaignConfig{
		Benchmark: "DGEMM", N: n, Seed: 21, BenchSeed: 1, Workers: 4,
		KeepRecords: true,
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
	if len(res.Records) != total {
		t.Fatalf("%d records for %d completed injections", len(res.Records), total)
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i-1].Seq >= res.Records[i].Seq {
			t.Fatal("partial records not sorted by Seq")
		}
	}
}

func TestCampaignStreamMatchesRecords(t *testing.T) {
	ch := make(chan InjectionRecord, 32)
	var streamed []InjectionRecord
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rec := range ch {
			streamed = append(streamed, rec)
		}
	}()
	res, err := RunCampaign(CampaignConfig{
		Benchmark: "DGEMM", N: 50, Seed: 33, BenchSeed: 1, Workers: 4,
		KeepRecords: true, Stream: ch,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done // the engine closed the channel when the campaign returned
	if len(streamed) != len(res.Records) {
		t.Fatalf("streamed %d records, kept %d", len(streamed), len(res.Records))
	}
	sort.Slice(streamed, func(i, j int) bool { return streamed[i].Seq < streamed[j].Seq })
	for i := range streamed {
		if streamed[i] != res.Records[i] {
			t.Fatalf("streamed record %d differs:\n%+v\n%+v", i, streamed[i], res.Records[i])
		}
	}
}

func TestCampaignAccounting(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Benchmark: "DGEMM", N: 80, Seed: 9, BenchSeed: 2, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.Total() != 80 {
		t.Fatalf("total %d != N", res.Outcomes.Total())
	}
	modelTotal := 0
	for _, m := range fault.Models {
		modelTotal += res.ByModel[m].Total()
	}
	if modelTotal != 80 {
		t.Fatalf("model partition sums to %d", modelTotal)
	}
	windowTotal := 0
	for _, w := range res.ByWindow {
		windowTotal += w.Total()
	}
	if windowTotal != 80 {
		t.Fatalf("window partition sums to %d", windowTotal)
	}
	regionTotal := 0
	for _, r := range res.ByRegion {
		regionTotal += r.Total()
	}
	if regionTotal != 80 {
		t.Fatalf("region partition sums to %d", regionTotal)
	}
	if len(res.ByWindow) != 5 {
		t.Fatalf("DGEMM windows = %d", len(res.ByWindow))
	}
	if res.Records != nil {
		t.Fatal("records kept without KeepRecords")
	}
}

func TestCampaignModelsRoundRobin(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
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
	res, err := RunCampaign(CampaignConfig{
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
	if _, err := RunCampaign(CampaignConfig{Benchmark: "DGEMM", N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := RunCampaign(CampaignConfig{Benchmark: "Ghost", N: 5}); err == nil {
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
			res, err := RunCampaign(CampaignConfig{
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

type crashingBench struct{ bench.Benchmark }

func (crashingBench) Run(*bench.Ctx) { panic("golden run crashes on purpose") }

// TestCampaignReturnsRunners: every runner a campaign borrows is back in the
// list when the campaign returns, whichever way it leaves, and the Stream is
// closed on each of those paths.
func TestCampaignReturnsRunners(t *testing.T) {
	const workers = 3
	// "flaky-DGEMM" is DGEMM, except that the failAt-th construction of a
	// case returns a benchmark whose golden run crashes.
	var builds, failAt atomic.Int64
	bench.Register("flaky-DGEMM", func(seed uint64) bench.Benchmark {
		b, err := bench.New("DGEMM", seed)
		if err != nil {
			panic(err)
		}
		if builds.Add(1) == failAt.Load() {
			return crashingBench{b}
		}
		return b
	})
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
		{name: "first runner fails", n: 30, failAt: 1, wantErr: true, wantIdle: 0},
		{name: "a worker's runner fails", n: 30, failAt: 2, wantErr: true, wantIdle: workers - 1},
		{name: "cancelled", n: 4000, cancelAt: 20, wantErr: true, wantIdle: workers},
	} {
		rs := bench.NewRunners()
		for i := 0; i < workers+1; i++ { // one more than is taken, so Put keeps them
			rs.Expect("flaky-DGEMM", 1)
		}
		builds.Store(0)
		failAt.Store(tc.failAt)
		ctx, cancel := context.WithCancel(context.Background())
		ch := make(chan InjectionRecord, 32)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range ch {
			}
		}()
		_, err := RunCampaignContext(ctx, CampaignConfig{
			Benchmark: "flaky-DGEMM", N: tc.n, Seed: 5, BenchSeed: 1, Workers: workers,
			Stream: ch, Runners: rs,
			Progress: func(done, total int) {
				if tc.cancelAt > 0 && done >= tc.cancelAt {
					cancel()
				}
			},
		})
		cancel()
		<-drained // the campaign closed the stream
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if got := rs.Idle(); got != tc.wantIdle {
			t.Errorf("%s: %d runners back in the list, want %d", tc.name, got, tc.wantIdle)
		}
	}
}
