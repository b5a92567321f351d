package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"

	_ "phirel/internal/bench/all"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in metrics.go")

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []boundMetric `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type boundMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// wantManifest is BENCHMARK.json as the tables in metrics.go define it.
func wantManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layerMetric{d.Name, d.Unit, d.Better})
	}
	return m
}

// TestManifest holds BENCHMARK.json and the benchmark's own tables to each
// other, in both directions, and both to the limits a manifest must keep.
func TestManifest(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	want := wantManifest()
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and metrics.go disagree; run go test -run TestManifest -update after changing a table\n got %+v\nwant %+v", got, want)
	}

	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1 to 64 of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v lacks a unit, a direction or a bound in (0, 0.25]", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, d := range perLayer() {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Moves == "" {
			t.Errorf("per-layer metric %+v lacks a unit, a direction or the end-to-end metric it should move", d)
		}
	}
}

// smokeConfig is a run of one workload at smoke scale, in this process.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{
		workload: workload, seed: 1701, sc: scales["smoke"], nproc: runtime.NumCPU(),
		trace: trace, dir: t.TempDir(), traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

// smokeWorker builds the phi-bench worker, or skips the test where there is
// no go toolchain to build it with.
func smokeWorker(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to build the phi-bench worker with")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{root: root, work: t.TempDir()}
	if _, err := h.buildWorker(context.Background()); err != nil {
		t.Fatal(err)
	}
	return h.base.worker
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload with tracing off and on, and the ledger, at
// smoke scale. Nothing may fail, an untraced run must emit exactly the
// end-to-end set, the traced runs and the ledger together exactly the
// per-layer set, and every workload's spans must account for its root span.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	layer := map[string]float64{}
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			worker := ""
			if wl.Name == "fanout_ckpt" {
				worker = smokeWorker(t)
			}
			for _, trace := range []bool{false, true} {
				cfg := smokeConfig(t, wl.Name, trace)
				cfg.worker = worker
				res := runWorkload(ctx, cfg)
				if res.Failed > 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, res.Failed, res.Attempted, res.Failures)
				}
				if !trace {
					if got, want := keys(res.Metrics), names(endToEnd); !reflect.DeepEqual(got, want) {
						t.Errorf("untraced run emitted %v, want %v", got, want)
					}
					for k, v := range res.Metrics {
						if !(v > 0) {
							t.Errorf("end-to-end metric %s reads %v, want more than 0", k, v)
						}
					}
					continue
				}
				for k, v := range res.Metrics {
					layer[k] = v
				}
				if c := res.Metrics["trace.self_coverage"]; c < 0.95 {
					t.Errorf("self times account for %.3f of the root spans, want at least 0.95", c)
				}
			}
		})
	}
	t.Run("ledger", func(t *testing.T) {
		cfg := smokeConfig(t, "", true)
		cfg.worker = smokeWorker(t)
		tl := &tally{}
		for k, v := range runLedger(ctx, cfg, tl) {
			layer[k] = v
		}
		if tl.failed > 0 {
			t.Fatalf("%d of %d operations failed: %v", tl.failed, tl.attempted, tl.failures)
		}
		if ratio := layer["bench.dgemm.armed_ms"] / layer["bench.dgemm.golden_ms"]; ratio < 5 {
			t.Errorf("DGEMM armed run is %.1f times its golden run, want at least 5: the forced-armed run is not on the cell-driven path", ratio)
		}
	})
	if t.Failed() {
		return
	}
	if got, want := keys(layer), names(perLayer()); !reflect.DeepEqual(got, want) {
		t.Errorf("traced runs and ledger emitted\n%v\nwant\n%v", got, want)
	}
}

// TestOracleCatchesCorruption feeds the checks a corrupted artifact: each
// must count a failed operation.
func TestOracleCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	tl := &tally{}
	g := &grid{cfg: smokeConfig(t, "inject_grid", false), t: tl}
	if err := g.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := g.rep(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("clean run: %d failed operations: %v", tl.failed, tl.failures)
	}

	g.warm[len(g.warm)/2] ^= 1
	if _, err := g.rep(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 1 {
		t.Errorf("an artifact with one flipped bit counted %d failed operations, want 1", tl.failed)
	}

	res, err := g.spec(0).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res.Cells[0].Result.Outcomes.Masked++
	before := tl.failed
	checkTallies(tl, res)
	if tl.failed != before+1 {
		t.Errorf("a cell with one trial too many counted %d failed operations, want 1", tl.failed-before)
	}
}

// TestCompare holds compare to its three answers: agreement, a miss, and the
// refusal to compare runs taken on different machines.
func TestCompare(t *testing.T) {
	run := func(rate float64, nproc int) *fileReport {
		r := &fileReport{
			Env:      environment{NumCPU: nproc, GOMAXPROCS: nproc, GoVersion: "go1.24", Scale: "full", Seconds: 15},
			EndToEnd: map[string]map[string]float64{},
		}
		for _, wl := range workloads {
			r.EndToEnd[wl.Name] = map[string]float64{}
			for _, d := range endToEnd {
				r.EndToEnd[wl.Name][d.Name] = 100
			}
			r.EndToEnd[wl.Name]["trials_per_s"] = rate
		}
		return r
	}
	bound := endToEnd[1].Bound // of trials_per_s
	if err := compare(io.Discard, run(100, 2), run(100*(1+bound/2), 2)); err != nil {
		t.Errorf("runs half the bound apart: %v", err)
	}
	if err := compare(io.Discard, run(100, 2), run(100*(1-2*bound), 2)); err == nil {
		t.Error("compare accepted runs twice the bound apart")
	}
	if err := compare(io.Discard, run(100, 2), run(100, 1)); err == nil {
		t.Error("compare accepted runs taken on different core counts")
	}
}
