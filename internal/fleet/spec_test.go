package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSweepSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	spec := beamSweep()
	if err := spec.WriteSpecFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("spec changed across the file round-trip:\nwrote %+v\nread  %+v", spec, back)
	}
	// A spec-driven worker must run the exact same sweep: same grid, same
	// derived seeds.
	if !reflect.DeepEqual(spec.Cells(), back.Cells()) || !reflect.DeepEqual(spec.BeamCells(), back.BeamCells()) {
		t.Fatal("round-tripped spec derives a different grid")
	}
}

// TestSpecStringRoundTrip: the string form of a spec must round-trip it
// losslessly — same struct, same derived grid — and be byte-identical to
// the file form, so a spec sent as a string is exactly the file a shard
// worker reads.
func TestSpecStringRoundTrip(t *testing.T) {
	spec := beamSweep()
	data, err := spec.SpecString()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpec(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("spec changed across the string round-trip:\nwrote %+v\nread  %+v", spec, back)
	}
	if !reflect.DeepEqual(spec.Cells(), back.Cells()) || !reflect.DeepEqual(spec.BeamCells(), back.BeamCells()) {
		t.Fatal("round-tripped spec derives a different grid")
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.WriteSpecFile(path); err != nil {
		t.Fatal(err)
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data != string(fileBytes) {
		t.Fatal("SpecString diverges from the WriteSpecFile bytes")
	}
	if _, err := ReadSpec(strings.NewReader(`{"nope": 1}`)); err == nil {
		t.Fatal("ReadSpec accepted an unknown field")
	}
}

func TestReadSpecRejectsNonSpecs(t *testing.T) {
	dir := t.TempDir()
	read := func(name, content string) error {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadSpecFile(path)
		return err
	}
	if err := read("empty.json", ""); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("empty spec: %v, want a truncation error", err)
	}
	if err := read("garbage.json", "not json"); err == nil {
		t.Fatal("accepted garbage as a spec")
	}
	// A SweepResult artifact handed to a worker as a spec must fail loudly,
	// not run a default sweep.
	if err := read("artifact.json", `{"spec": {}, "cells": []}`); err == nil || !strings.Contains(err.Error(), "not a sweep spec") {
		t.Fatalf("artifact as spec: %v, want a not-a-spec error", err)
	}
	if _, err := ReadSpecFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("accepted a missing spec file")
	}
}

func TestDiscoverPartials(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"sweep-shard-1-of-3.json", "sweep-shard-2-of-3.json", "sweep-shard-3-of-3.json", "other.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DiscoverPartials(filepath.Join(dir, "sweep-shard-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("glob matched %d files, want 3: %v", len(got), got)
	}
	// Literal paths pass through.
	got, err = DiscoverPartials(filepath.Join(dir, "sweep-shard-1-of-3.json"), filepath.Join(dir, "sweep-shard-2-of-3.json"))
	if err != nil || len(got) != 2 {
		t.Fatalf("literal paths: %v, %v", got, err)
	}
	if _, err := DiscoverPartials(); err == nil {
		t.Fatal("accepted an empty argument list")
	}
	if _, err := DiscoverPartials(filepath.Join(dir, "nope-*.json")); err == nil || !strings.Contains(err.Error(), "match") {
		t.Fatalf("unmatched pattern: %v, want a no-match error", err)
	}
	p := filepath.Join(dir, "sweep-shard-1-of-3.json")
	if _, err := DiscoverPartials(p, p); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("repeated path: %v, want a duplicate error", err)
	}
	// Overlap between a glob and a literal is the sneaky duplicate.
	if _, err := DiscoverPartials(filepath.Join(dir, "sweep-shard-*.json"), p); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("glob/literal overlap: %v, want a duplicate error", err)
	}
}
