package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	_ "phirel/internal/bench/all"
)

// Fuzz harnesses for the three artifact readers a fan-out trusts its inputs
// to: the sweep-spec reader every worker boots from, the sweep-result
// reader every report renders from, and the shard-partial reader the
// supervisor validates worker output with. The contract under fuzz is the
// one the supervisor depends on: malformed, truncated, mislabelled or
// unknown-field artifacts must come back as errors — never as panics, and
// never as a silently defaulted value. Seed corpora live under
// testdata/fuzz and are replayed by plain `go test`; `make fuzz` mutates
// beyond them.

// fuzzSpecSeeds are representative spec inputs: a valid spec, truncation,
// garbage, an artifact-as-spec (the DisallowUnknownFields case), and JSON
// shape traps.
var fuzzSpecSeeds = [][]byte{
	[]byte(`{"benchmarks":["DGEMM"],"models":[0],"n":6,"seed":1701,"benchSeed":1,"workers":2}`),
	[]byte(`{"n":600,"seed":1701,"benchSeed":1,"workers":8,"beamRuns":100,"beamECCAblation":true}`),
	[]byte(`{"n":`),
	[]byte(``),
	[]byte(`not json`),
	[]byte(`{"spec": {}, "cells": []}`),
	[]byte(`[]`),
	[]byte(`null`),
	[]byte(`{"n": 1e309}`),
	[]byte(`{"models":[-1,99],"policies":["by-vibes"],"n":3,"workers":0}`),
}

func FuzzReadSpec(f *testing.F) {
	for _, seed := range fuzzSpecSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must be safe to interrogate the way the fleet
		// layer does before running anything…
		_ = s.Cells()
		_ = s.BeamCells()
		_, _ = s.Plan(0, 3)
		// …and must survive the string round-trip losslessly: a spec we
		// accept, re-ship to a worker and re-parse has to be the same spec.
		str, err := s.SpecString()
		if err != nil {
			t.Fatalf("accepted spec failed to re-encode: %v", err)
		}
		back, err := ReadSpec(strings.NewReader(str))
		if err != nil {
			t.Fatalf("re-encoded spec failed to re-parse: %v\nspec: %s", err, str)
		}
		// Exact struct equality is too strict — omitempty canonicalises
		// empty slices to nil — but the canonical form must be a fixpoint
		// and the derived grid (the spec's semantics) must be unchanged.
		str2, err := back.SpecString()
		if err != nil || str != str2 {
			t.Fatalf("canonical spec form not a fixpoint (err %v):\nfirst %s\nthen  %s", err, str, str2)
		}
		if !reflect.DeepEqual(s.Cells(), back.Cells()) || !reflect.DeepEqual(s.BeamCells(), back.BeamCells()) {
			t.Fatal("re-encoded spec derives a different grid")
		}
	})
}

var fuzzResultSeeds = [][]byte{
	[]byte(`{"spec":{"n":1,"seed":1,"benchSeed":1,"workers":1}}`),
	[]byte(`{"spec":{"n":1,"seed":1,"benchSeed":1,"workers":1},"cells":[{"benchmark":"DGEMM","model":0,"policy":"by-frame","seed":7,"result":null}]}`),
	[]byte(`{"spec":{"n":4,"seed":1,"benchSeed":1,"workers":1},"shard":{"index":0,"count":2,"injection":{"offset":0,"n":2},"beam":{"offset":0,"n":0}}}`),
	[]byte(`{"spec"`),
	[]byte(``),
	[]byte(`null`),
	[]byte(`{"shard":{"index":-5,"count":0}}`),
	[]byte(`{"cells":[{"result":{"byModel":{"0":{}},"byRegion":{"x":{}}}}]}`),
}

func FuzzReadJSON(f *testing.F) {
	for _, seed := range fuzzResultSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted result must re-serialise and re-read without error:
		// artifacts we write are artifacts we can read back.
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted result failed to re-encode: %v", err)
		}
		if _, err := ReadJSON(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-encoded result failed to re-read: %v", err)
		}
	})
}

// FuzzLoadCheckpoint hardens the resume path: a checkpoint artifact is
// whatever a killed worker left on disk, so truncated, corrupt, stale-plan
// or hand-edited bytes must come back as errors the caller degrades from —
// never a panic, and never an accepted checkpoint whose ranges would poison
// a merge. The valid-checkpoint seed is generated live (artifact bytes
// embed computed results); the committed corpus carries the malformed
// shapes.
func FuzzLoadCheckpoint(f *testing.F) {
	spec := ckptSweep()
	plan, err := spec.Plan(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	pre := ShardPlan{Index: 0, Count: 1, Injection: TrialRange{N: 2}, Beam: TrialRange{N: 2}}
	part, err := spec.RunPlan(context.Background(), pre)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := part.WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	for _, seed := range fuzzResultSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, rest, err := LoadCheckpoint(path, spec, plan)
		if err != nil {
			return // degrades to resume-from-zero, exactly as intended
		}
		// An accepted checkpoint must be a genuine prefix: checkpoint plus
		// remainder tile the plan with nothing lost and nothing doubled.
		if ck.Shard == nil {
			t.Fatal("accepted checkpoint has no shard tag")
		}
		if ck.Shard.Injection.N+rest.Injection.N != plan.Injection.N ||
			ck.Shard.Beam.N+rest.Beam.N != plan.Beam.N {
			t.Fatalf("accepted checkpoint loses trials: ck %+v rest %+v plan %+v", ck.Shard, rest, plan)
		}
		if re, err := ResumePlan(plan, *ck.Shard); err != nil || re != rest {
			t.Fatalf("accepted checkpoint not re-derivable: %+v vs %+v (%v)", re, rest, err)
		}
		// And it must fold without error when it covers the whole plan.
		if rest.Injection.Empty() && rest.Beam.Empty() {
			if _, err := MergeShardPartials(plan, ck); err != nil {
				t.Fatalf("full-coverage checkpoint refuses to fold: %v", err)
			}
		}
	})
}

func FuzzReadShardFile(f *testing.F) {
	for _, seed := range fuzzResultSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "artifact.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The two file readers partition the same inputs: ReadShardFile
		// accepts only shard-tagged partials, ReadFile only complete
		// artifacts — no input may satisfy both, and neither may panic.
		shard, shardErr := ReadShardFile(path)
		whole, wholeErr := ReadFile(path)
		if shardErr == nil && wholeErr == nil {
			t.Fatalf("input accepted as both a shard partial and a complete artifact: %q", data)
		}
		if shardErr == nil && shard.Shard == nil {
			t.Fatal("ReadShardFile returned a result with no shard tag")
		}
		if wholeErr == nil && whole.Shard != nil {
			t.Fatal("ReadFile returned a shard-tagged result")
		}
	})
}
