package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// readSpans reads a span file back.
func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpanFile checks the span file of a traced run whose spans run one at a
// time (inject_grid's replay) and of one whose spans overlap (serve_mix's
// requests): the spans form a forest, every child lies inside its parent,
// the spans of one trace hang off one root, and their self times sum to the
// root's duration, within 1% where nothing overlaps and to no less where
// launches do.
func TestSpanFile(t *testing.T) {
	for _, workload := range []string{"inject_grid", "serve_mix"} {
		t.Run(workload, func(t *testing.T) {
			cfg := smokeConfig(t, workload, true)
			if res := runWorkload(context.Background(), cfg); res.Failed > 0 {
				t.Fatalf("%d operations failed: %v", res.Failed, res.Failures)
			}
			spans := readSpans(t, cfg.traceOut)
			if len(spans) == 0 {
				t.Fatal("no spans written")
			}

			byID := map[int64]span{}
			roots := map[string]span{}
			for _, s := range spans {
				if s.ID <= 0 || byID[s.ID].ID != 0 {
					t.Fatalf("span id %d is not positive and unique", s.ID)
				}
				if s.Workload != workload || s.Name == "" || s.Trace == "" || s.End < s.Start {
					t.Errorf("malformed span %+v", s)
				}
				byID[s.ID] = s
				if s.Parent == 0 {
					if r, dup := roots[s.Trace]; dup {
						t.Errorf("trace %s has two roots, %s and %s", s.Trace, r.Name, s.Name)
					}
					roots[s.Trace] = s
				}
			}
			for _, s := range spans {
				if s.Parent == 0 {
					continue
				}
				p, ok := byID[s.Parent]
				switch {
				case !ok:
					t.Errorf("span %d (%s) names a parent %d that does not exist", s.ID, s.Name, s.Parent)
				case p.ID >= s.ID:
					t.Errorf("span %d (%s) was recorded before its parent %d: not a forest", s.ID, s.Name, p.ID)
				case p.Trace != s.Trace:
					t.Errorf("span %d (%s) is in trace %s, its parent in %s", s.ID, s.Name, s.Trace, p.Trace)
				case s.Start < p.Start || s.End > p.End:
					t.Errorf("span %d (%s) [%d, %d] leaves its parent %s [%d, %d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}

			self := selfTimes(spans)
			sums := map[string]int64{}
			for _, s := range spans {
				if _, ok := roots[s.Trace]; !ok {
					t.Errorf("span %d (%s) is in trace %s, which has no root", s.ID, s.Name, s.Trace)
				}
				sums[s.Trace] += self[s.ID]
			}
			for trace, root := range roots {
				dur := float64(root.End - root.Start)
				ratio := float64(sums[trace]) / dur
				if dur == 0 {
					continue
				}
				if ratio < 0.99 || (root.Name == "replay" && ratio > 1.01) {
					t.Errorf("trace %s: self times sum to %.4f of the %s root", trace, ratio, root.Name)
				}
			}
		})
	}
}

// TestSelfTimeCountsOverlapOnce pins the self-time rule on a hand-made trace:
// children that overlap cover their union, and a child is cut to its parent.
func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "t", Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: "t", Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Trace: "t", Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 1, Trace: "t", Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 2, Trace: "t", Name: "leaf", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 30, 2: 30, 3: 40, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d is %d, want %d", id, self[id], want)
		}
	}
	byName, coverage := shares(spans, "root")
	if got := byName["root"]; math.Abs(got-0.30) > 1e-9 {
		t.Errorf("share of root is %v, want 0.30", got)
	}
	if math.Abs(coverage-1.40) > 1e-9 {
		t.Errorf("coverage is %v, want 1.40", coverage)
	}
}
