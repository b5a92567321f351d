package perf

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestMannWhitneyUExact(t *testing.T) {
	// Fully separated samples: P(U<=0) = 1/C(n+m,n), two-sided doubles it.
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 2.0 / 20},
		{[]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 2.0 / 70},
		{[]float64{4, 5, 6}, []float64{1, 2, 3}, 2.0 / 20}, // symmetric
	}
	for _, c := range cases {
		got := MannWhitneyU(c.a, c.b)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MWU(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMannWhitneyUInterleaved(t *testing.T) {
	// Perfectly interleaved samples should be far from significant.
	a := []float64{1, 3, 5, 7, 9, 11}
	b := []float64{2, 4, 6, 8, 10, 12}
	if p := MannWhitneyU(a, b); p < 0.5 {
		t.Errorf("interleaved samples p = %v, want >= 0.5", p)
	}
}

func TestMannWhitneyUTies(t *testing.T) {
	// All-identical observations: no evidence of difference.
	a := []float64{5, 5, 5, 5}
	b := []float64{5, 5, 5, 5}
	if p := MannWhitneyU(a, b); p < 0.9 {
		t.Errorf("identical samples p = %v, want ~1", p)
	}
	// Ties but clear separation still detects the shift (approx path).
	c := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	d := []float64{9, 9, 9, 9, 9, 9, 9, 9}
	if p := MannWhitneyU(c, d); p > 0.01 {
		t.Errorf("separated tied samples p = %v, want < 0.01", p)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(name string, ns ...float64) Entry {
		return Entry{Name: name, SamplesNs: ns, NsPerTrial: median(ns)}
	}
	base := &Run{Entries: []Entry{
		mk("steady", 100, 101, 99, 100, 102, 98, 100, 101),
		mk("regressed", 100, 101, 99, 100, 102, 98, 100, 101),
		mk("gone", 50, 50, 50),
	}}
	cur := &Run{Entries: []Entry{
		mk("steady", 101, 100, 99, 102, 100, 98, 101, 100),
		mk("regressed", 150, 151, 149, 150, 152, 148, 150, 151),
		mk("new", 10, 10, 10),
	}}
	deltas := Compare(base, cur, 0.05, 0.10)
	got := map[string]Delta{}
	for _, d := range deltas {
		got[d.Name] = d
	}
	if d := got["steady"]; d.Regression || d.Missing {
		t.Errorf("steady flagged: %+v", d)
	}
	if d := got["regressed"]; !d.Regression {
		t.Errorf("50%% slowdown not flagged: %+v", d)
	}
	if !got["gone"].Missing || !got["new"].Missing {
		t.Errorf("missing entries not flagged: gone=%+v new=%+v", got["gone"], got["new"])
	}
	// A significant but within-margin slowdown is not a regression.
	cur2 := &Run{Entries: []Entry{mk("steady", 105, 106, 104, 105, 107, 103, 105, 106)}}
	d := Compare(base, cur2, 0.05, 0.10)[0]
	if d.Regression {
		t.Errorf("5%% slowdown inside 10%% margin flagged as regression: %+v", d)
	}
	if !d.Significant {
		t.Errorf("5%% shift on tight samples should be significant: %+v", d)
	}
}

// TestPool: the pooled run carries every recording's samples per case, its
// median is over all of them, and recordings of different suites are refused.
func TestPool(t *testing.T) {
	mk := func(ns ...float64) *Run {
		return &Run{Samples: len(ns), Entries: []Entry{
			{Name: "a", SamplesNs: ns, NsPerTrial: median(ns), AllocsPerTrial: ns[0]},
			{Name: "b", SamplesNs: []float64{1}},
		}}
	}
	cold, warm := mk(40, 39, 20), mk(20, 21, 19)
	got, err := Pool([]*Run{cold, warm})
	if err != nil {
		t.Fatal(err)
	}
	a := got.Entries[0]
	if len(a.SamplesNs) != 6 || a.NsPerTrial != 20.5 || a.AllocsPerTrial != 30 || got.Samples != 6 {
		t.Errorf("pooled case: %+v (run samples %d), want 6 samples with median 20.5 and mean allocs 30", a, got.Samples)
	}
	if len(cold.Entries[0].SamplesNs) != 3 {
		t.Error("Pool changed a recording it was given")
	}
	other := &Run{Entries: []Entry{{Name: "a", SamplesNs: []float64{1}}, {Name: "c", SamplesNs: []float64{1}}}}
	if _, err := Pool([]*Run{cold, other}); err == nil {
		t.Error("pooled recordings of different suites")
	}
}

func TestMeasureSmoke(t *testing.T) {
	calls := 0
	cases := []Case{{
		Name:   "busy",
		Trials: 4,
		Setup: func() (func(), error) {
			return func() {
				calls++
				x := 0.0
				for i := 0; i < 20000; i++ {
					x += math.Sqrt(float64(i))
				}
				_ = x
			}, nil
		},
	}}
	run, err := Measure(cases, Options{Samples: 3, MinSampleTime: time.Millisecond, Label: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Entries) != 1 || calls == 0 {
		t.Fatalf("bad run: %+v (calls=%d)", run, calls)
	}
	e := run.Entries[0]
	if e.NsPerTrial <= 0 || e.TrialsPerSec <= 0 || len(e.SamplesNs) != 3 {
		t.Fatalf("bad entry: %+v", e)
	}
}

func TestMeasureFilter(t *testing.T) {
	mk := func(name string) Case {
		return Case{Name: name, Trials: 1, Setup: func() (func(), error) {
			return func() {}, nil
		}}
	}
	run, err := Measure([]Case{mk("DGEMM/golden"), mk("NW/golden"), mk("DGEMM/inject/Zero")},
		Options{Samples: 1, MinSampleTime: time.Microsecond, Filter: regexp.MustCompile(`^DGEMM/`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Entries) != 2 {
		t.Fatalf("filter kept %d entries, want 2", len(run.Entries))
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run := &Run{Schema: 1, Label: "x", Samples: 2,
		Entries: []Entry{{Name: "a", Trials: 1, SamplesNs: []float64{1, 2}, NsPerTrial: 1.5}}}
	bare := filepath.Join(dir, "run.json")
	if err := WriteJSON(bare, run); err != nil {
		t.Fatal(err)
	}
	// A bare run loads as the baseline.
	f, err := ReadFile(bare)
	if err != nil {
		t.Fatal(err)
	}
	if f.Baseline == nil || f.Baseline.Label != "x" {
		t.Fatalf("bare run not adopted as baseline: %+v", f)
	}
	// A full file round-trips.
	full := filepath.Join(dir, "BENCH_test.json")
	if err := WriteJSON(full, File{Schema: 1, Issue: 7, Before: run, Baseline: run}); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Issue != 7 || f2.Before == nil || f2.Baseline == nil {
		t.Fatalf("file round-trip lost fields: %+v", f2)
	}
}

func TestDefaultSuiteShape(t *testing.T) {
	cases := DefaultSuite()
	// 6 golden + 6×4 inject + 4 beam.
	if len(cases) != 6+24+4 {
		t.Fatalf("suite has %d cases, want 34", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Fatalf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
		if c.Trials <= 0 || c.Setup == nil {
			t.Fatalf("malformed case %+v", c)
		}
	}
	for _, want := range []string{"DGEMM/golden", "CLAMR/inject/Zero", "LUD/beam"} {
		if !seen[want] {
			t.Fatalf("suite missing %q", want)
		}
	}
}
