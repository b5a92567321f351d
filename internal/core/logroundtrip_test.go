package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	_ "phirel/internal/bench/all"
	"phirel/internal/trace"
)

// TestLogRoundTripReaggregation exercises the artifact workflow end to end:
// run a campaign whose workers hand their records through the reorder to
// a JSONL file (carol-fi -out), read them back (phi-report), and verify the
// re-derived aggregates equal the campaign's own.
func TestLogRoundTripReaggregation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	file, err := trace.Open(path, os.O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.NewOrdered(func(r InjectionRecord) { file.Write(r) })
	cfg := CampaignConfig{Benchmark: "LUD", N: 120, Seed: 77, BenchSeed: 1, Workers: 4}
	recs := observe(&cfg)
	keep := cfg.Observe
	cfg.Observe = func(r InjectionRecord) { keep(r); log.Put(r.Seq, r) }
	res, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	back, err := trace.Read[InjectionRecord](bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != res.N {
		t.Fatalf("read %d records, want %d", len(back), res.N)
	}

	var re OutcomeCounts
	fired := 0
	for i, rec := range back {
		if rec != recs[i] {
			t.Fatalf("record %d changed across serialisation:\n%+v\n%+v", i, rec, recs[i])
		}
		re.Add(rec.OutcomeOf())
		if rec.Fired {
			fired++
		}
	}
	if re != res.Outcomes {
		t.Fatalf("re-aggregated outcomes %+v != campaign %+v", re, res.Outcomes)
	}
	if fired != res.FiredShare.K {
		t.Fatalf("fired count %d != %d", fired, res.FiredShare.K)
	}
}

// TestCampaignWindowCoverage checks injections actually land in every
// window (Figure 6 would silently show empty columns otherwise).
func TestCampaignWindowCoverage(t *testing.T) {
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Benchmark: "CLAMR", N: 270, Seed: 5, BenchSeed: 1, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByWindow) != 9 {
		t.Fatalf("CLAMR windows = %d", len(res.ByWindow))
	}
	for w, c := range res.ByWindow {
		if c.Total() == 0 {
			t.Errorf("window %d received no injections", w)
		}
	}
}
