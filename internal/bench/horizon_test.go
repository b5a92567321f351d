package bench_test

import (
	"reflect"
	"testing"

	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
)

// TestHorizonStaysSmall: a runner keeps its horizon for as long as it lives,
// in worker processes whose whole heap is a few megabytes, so the six tables
// together must stay within 96 KB.
func TestHorizonStaysSmall(t *testing.T) {
	total := 0
	for _, name := range bench.Names() {
		b, err := bench.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		run, err := bench.NewRunner(b)
		if err != nil {
			t.Fatal(err)
		}
		n := run.HorizonBytes()
		t.Logf("%s: %d ticks, horizon %.1f KB", name, run.TotalTicks, float64(n)/1024)
		total += n
	}
	if total > 96<<10 {
		t.Fatalf("the six horizons hold %.1f KB, want at most 96", float64(total)/1024)
	}
}

// TestRunnersOnePassIsGolden: a key's one kernel run has every cell armed,
// and is still its golden run. For every kernel at three input seeds, the
// Golden, TotalTicks and GoldenWork NewRunner takes from that run must equal
// a run with nothing armed bit for bit, nothing may be left armed after it,
// and the horizon it records while saving resume points — whose SavePoint
// may Load the cells it counts — must be the one a run that saves none
// records.
func TestRunnersOnePassIsGolden(t *testing.T) {
	for _, name := range bench.Names() {
		for _, seed := range []uint64{1, 3, 7} {
			b, err := bench.New(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := bench.NewRunner(b)
			if err != nil {
				t.Fatal(err)
			}
			if b.Registry().AnyArmed() {
				t.Errorf("%s seed %d: a cell is left armed after the runner's construction", name, seed)
			}
			built := endOf(bench.RawResult{Ticks: r.TotalTicks, Work: r.GoldenWork, Output: r.Golden})
			if got := endOf(r.RunGolden()); !reflect.DeepEqual(got, built) {
				t.Errorf("%s seed %d: a run with nothing armed is not the construction's golden run: %d ticks, work %d, want %d, %d (outputs equal: %v)",
					name, seed, got.Ticks, got.Work, built.Ticks, built.Work, reflect.DeepEqual(got.Output, built.Output))
			}
			if _, ok := b.(bench.Resumable); !ok {
				continue
			}
			plainB, err := bench.New(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := bench.NewRunner(struct{ bench.Benchmark }{plainB}) // no SavePoint to call
			if err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick < r.TotalTicks; tick++ {
				got, want := r.LiveAt(tick), plain.LiveAt(tick)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d tick %d: %d live sites saving resume points, %d without", name, seed, tick, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d tick %d: saving resume points changed the horizon:\n saving  %+v\n without %+v", name, seed, tick, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGoldenRunAllocs: a golden run of every registered kernel allocates at
// most 3 times (its Ctx, the Ctx's lane counters and its output). A kernel
// builds the frames it pushes once, with itself, and keeps its loops'
// arguments off the heap: a frame built per phase, or a HotSpot row or
// LavaMD box whose arguments escaped, would add allocations per tick, row or
// pair.
func TestGoldenRunAllocs(t *testing.T) {
	names := bench.Names()
	if len(names) < 6 {
		t.Fatalf("%d kernels registered, want the paper's six", len(names))
	}
	for _, name := range names {
		b, err := bench.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := bench.NewRunner(b)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(10, func() { r.RunGolden() }); a > 3 {
			t.Errorf("%s: a golden run allocates %v times, want at most 3", name, a)
		}
	}
}
