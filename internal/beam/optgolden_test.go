package beam_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"phirel/internal/beam"
	_ "phirel/internal/bench/all"
)

// Pre-optimization beam goldens: the accelerated campaign must stay
// byte-identical across the engine/kernel hot-path changes, for any worker
// count. Captured before those changes landed; see the matching test in
// internal/core for the rationale. Regenerate deliberately with
// go test ./internal/beam -run OptGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the pre-optimization beam goldens")

func TestOptGoldenBeam(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"DGEMM", "LUD", "HotSpot", "LavaMD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", "optgolden", name+".json")
			want, err := os.ReadFile(path)
			if err != nil && !*updateGolden {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			for _, workers := range []int{1, 4} {
				recs := make([]beam.Record, 400)
				res, err := beam.Run(beam.Config{
					Benchmark: name, Runs: 400, Seed: 20260808, BenchSeed: 1,
					Workers: workers, Observe: func(r beam.Record) { recs[r.Seq] = r },
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", " ")
				if err := enc.Encode(struct {
					*beam.Result
					Records []beam.Record `json:",omitempty"`
				}{res, recs}); err != nil {
					t.Fatal(err)
				}
				got := buf.Bytes()
				if *updateGolden && workers == 1 {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: beam artifact differs from pre-optimization golden %s", workers, path)
				}
			}
		})
	}
}
