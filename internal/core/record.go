// Package core implements the paper's primary contribution: the CAROL-FI
// high-level fault injector (§5) and the campaign analysis built on it (§6).
//
// One injection experiment mirrors the tool's supervisor/flip-script
// workflow: run the benchmark at full speed, interrupt it at a uniformly
// random instrumentation tick, walk the live registry frames for a victim
// variable, apply one of the four fault models to its bits, resume, and
// classify the outcome (masked / SDC / DUE) against a golden output.
// Scalar victims are corrupted through deferred arming so the flip lands
// mid-loop inside a running worker, exactly where a GDB interrupt would
// find live loop state.
//
// Campaigns aggregate thousands of such records into the paper's
// observables: outcome shares (Figure 4), per-fault-model PVF (Figure 5),
// per-time-window PVF (Figure 6), and per-region criticality (§6 prose),
// and derive mitigation recommendations (§6.1).
package core

import (
	"fmt"

	"phirel/internal/analysis"
	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/state"
)

// InjectionRecord is one experiment's log entry — the in-memory form of the
// JSONL records phirel publishes, mirroring CAROL-FI's per-injection log
// (variable name, fault model, time, outcome).
type InjectionRecord struct {
	Seq       int          `json:"seq"`
	Benchmark string       `json:"benchmark"`
	Model     string       `json:"model"`
	Policy    string       `json:"policy"`
	Tick      int          `json:"tick"`
	Window    int          `json:"window"`
	Site      string       `json:"site"`
	Region    state.Region `json:"region"`
	Kind      string       `json:"kind"`
	// Elem is the corrupted element index for buffer sites, -1 for scalars.
	Elem int `json:"elem"`
	// Fired reports whether the corruption materialised: immediate buffer
	// corruptions always fire; an armed scalar corruption may never fire if
	// the victim variable is dead for the rest of the run.
	Fired       bool   `json:"fired"`
	BitsChanged int    `json:"bitsChanged"`
	Before      uint64 `json:"before"`
	After       uint64 `json:"after"`

	Outcome        string  `json:"outcome"`
	Pattern        string  `json:"pattern"`
	MaxRelErr      float64 `json:"maxRelErr"`
	CorruptedElems int     `json:"corruptedElems"`
	PanicMsg       string  `json:"panicMsg,omitempty"`
}

// OutcomeOf parses the record's outcome back into the harness enum; an
// outcome no campaign writes reads as Masked (Check rejects it).
func (r InjectionRecord) OutcomeOf() bench.Outcome {
	o, _ := parseOutcome(r.Outcome)
	return o
}

// ModelOf parses the record's fault model; an unknown one reads as Single.
func (r InjectionRecord) ModelOf() fault.Model {
	m, err := fault.ParseModel(r.Model)
	if err != nil {
		return fault.Single
	}
	return m
}

// PolicyOf parses the record's site-selection policy; a record that names
// none, or an unknown one, counts under the campaign default.
func (r InjectionRecord) PolicyOf() state.Policy {
	p, err := state.ParsePolicy(r.Policy)
	if err != nil {
		return state.ByFrameThenVariable
	}
	return p
}

// PatternOf parses the record's spatial pattern; an unknown one reads as
// none.
func (r InjectionRecord) PatternOf() analysis.Pattern {
	p, _ := parsePattern(r.Pattern)
	return p
}

// Check reports the first of the record's outcome, model, policy and
// pattern that no campaign writes, which the readers above would silently
// read as their defaults. An empty policy is the campaign default. A log
// reader checks each record once; the campaign's own fold does not.
func (r InjectionRecord) Check() error {
	if _, ok := parseOutcome(r.Outcome); !ok {
		return fmt.Errorf("core: unknown outcome %q", r.Outcome)
	}
	if _, err := fault.ParseModel(r.Model); err != nil {
		return err
	}
	if r.Policy != "" {
		if _, err := state.ParsePolicy(r.Policy); err != nil {
			return err
		}
	}
	if _, ok := parsePattern(r.Pattern); !ok {
		return fmt.Errorf("core: unknown pattern %q", r.Pattern)
	}
	return nil
}

func parseOutcome(s string) (bench.Outcome, bool) {
	for _, o := range []bench.Outcome{bench.Masked, bench.SDC, bench.DUECrash, bench.DUEHang, bench.DUEMCA} {
		if o.String() == s {
			return o, true
		}
	}
	return bench.Masked, false
}

func parsePattern(s string) (analysis.Pattern, bool) {
	for _, p := range append([]analysis.Pattern{analysis.PatternNone}, analysis.Patterns...) {
		if p.String() == s {
			return p, true
		}
	}
	return analysis.PatternNone, false
}
