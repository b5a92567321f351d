package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// Delta is the comparison of one suite entry between two runs.
type Delta struct {
	Name        string  `json:"name"`
	OldNs       float64 `json:"oldNs"`
	NewNs       float64 `json:"newNs"`
	Ratio       float64 `json:"ratio"` // new/old; >1 is slower
	P           float64 `json:"p"`     // Mann-Whitney U two-sided p-value
	Significant bool    `json:"significant"`
	Regression  bool    `json:"regression"`
	Missing     bool    `json:"missing"` // entry absent on one side
}

// Compare matches entries by name and scores each with the Mann-Whitney U
// test on the per-sample ns/trial arrays. An entry is a Regression when the
// difference is statistically significant (p < alpha) AND the median
// slowdown exceeds margin (e.g. 0.10 = 10%) — the margin absorbs machine
// noise that reaches significance on quiet runners.
func Compare(base, cur *Run, alpha, margin float64) []Delta {
	idx := map[string]*Entry{}
	for i := range base.Entries {
		idx[base.Entries[i].Name] = &base.Entries[i]
	}
	seen := map[string]bool{}
	var out []Delta
	for i := range cur.Entries {
		e := &cur.Entries[i]
		seen[e.Name] = true
		old, ok := idx[e.Name]
		if !ok {
			out = append(out, Delta{Name: e.Name, NewNs: e.NsPerTrial, Missing: true})
			continue
		}
		d := Delta{
			Name:  e.Name,
			OldNs: old.NsPerTrial,
			NewNs: e.NsPerTrial,
			P:     MannWhitneyU(old.SamplesNs, e.SamplesNs),
		}
		if old.NsPerTrial > 0 {
			d.Ratio = e.NsPerTrial / old.NsPerTrial
		}
		d.Significant = d.P < alpha
		d.Regression = d.Significant && d.Ratio > 1+margin
		out = append(out, d)
	}
	for name, old := range idx {
		if !seen[name] {
			out = append(out, Delta{Name: name, OldNs: old.NsPerTrial, Missing: true})
		}
	}
	return out
}

// FormatDeltas renders a benchstat-style table.
func FormatDeltas(deltas []Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %8s %8s  %s\n",
		"case", "old ns/trial", "new ns/trial", "ratio", "p", "verdict")
	for _, d := range deltas {
		verdict := "~"
		switch {
		case d.Missing:
			verdict = "MISSING"
		case d.Regression:
			verdict = "REGRESSION"
		case d.Significant && d.Ratio < 1:
			verdict = "improved"
		case d.Significant:
			verdict = "slower (within margin)"
		}
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %8.3f %8.4f  %s\n",
			d.Name, d.OldNs, d.NewNs, d.Ratio, d.P, verdict)
	}
	return b.String()
}

// Pool folds recordings of the same suite into one run whose every case
// carries all the recordings' samples. Each recording is a process of its
// own, so the pooled samples span what differs from one process to the next
// (where the scheduler first places it, the state of the machine that
// minute) as well as what differs within one; that is the spread the gate's
// own fresh process is drawn from. Cases are matched by name and keep the
// first recording's order; a case a recording lacks is an error.
func Pool(runs []*Run) (*Run, error) {
	out := *runs[0]
	out.Entries = append([]Entry(nil), runs[0].Entries...)
	out.Samples = 0
	for _, r := range runs {
		out.Samples += r.Samples
	}
	for i := range out.Entries {
		e := &out.Entries[i]
		e.SamplesNs, e.AllocsPerTrial, e.BytesPerTrial = nil, 0, 0
		for _, r := range runs {
			j := slices.IndexFunc(r.Entries, func(x Entry) bool { return x.Name == e.Name })
			if j < 0 || len(r.Entries) != len(out.Entries) {
				return nil, fmt.Errorf("perf: recording %q does not hold the same cases (%s)", r.Label, e.Name)
			}
			e.SamplesNs = append(e.SamplesNs, r.Entries[j].SamplesNs...)
			e.AllocsPerTrial += r.Entries[j].AllocsPerTrial / float64(len(runs))
			e.BytesPerTrial += r.Entries[j].BytesPerTrial / float64(len(runs))
		}
		e.NsPerTrial = median(e.SamplesNs)
		if e.NsPerTrial > 0 {
			e.TrialsPerSec = 1e9 / e.NsPerTrial
		}
	}
	return &out, nil
}

// File is the committed BENCH_<n>.json artifact: the protected baseline,
// plus (for perf PRs) the pre-optimization run the speedup is claimed
// against.
type File struct {
	Schema   int    `json:"schema"`
	Issue    int    `json:"issue"`
	Notes    string `json:"notes,omitempty"`
	Before   *Run   `json:"before,omitempty"`
	Baseline *Run   `json:"baseline"`
}

// ReadFile loads a BENCH_<n>.json (or a bare Run written by phi-perf -out;
// a bare run becomes the Baseline of a schema-0 File).
func ReadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if f.Baseline == nil {
		var r Run
		if err := json.Unmarshal(raw, &r); err != nil || len(r.Entries) == 0 {
			return nil, fmt.Errorf("perf: %s: neither a bench file nor a run", path)
		}
		f = File{Baseline: &r}
	}
	return &f, nil
}

// WriteJSON writes v as indented JSON.
func WriteJSON(path string, v any) error {
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}
