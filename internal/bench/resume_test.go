package bench_test

import (
	"fmt"
	"math"
	"testing"

	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/state"
)

// TestSnapshotsStaySmall: a key's resume points live as long as its runners
// do, in worker processes whose whole heap is a few megabytes, so what the
// six default configurations keep must stay within 1 MiB, and the kernels
// whose state at a tick is a prefix of their golden output must keep nothing.
// The residual is what a resumed run still repeats of the golden run: the
// ticks between its resume point and its tick, averaged over a uniform tick,
// as a share of the run.
func TestSnapshotsStaySmall(t *testing.T) {
	total := 0
	for _, name := range bench.Names() {
		_, r := newWatched(t, name)
		points, bytes := r.ResumePoints()
		repeated := 0
		for tick := 0; tick < r.TotalTicks; tick++ {
			repeated += tick - r.ResumePoint(tick)
		}
		t.Logf("%-8s %3d points in %3d ticks, %6.1f KB, residual %4.1f %% of a run",
			name, points, r.TotalTicks, float64(bytes)/1024, 100*float64(repeated)/float64(r.TotalTicks*r.TotalTicks))
		if (name == "DGEMM" || name == "LavaMD") && bytes != 0 {
			t.Errorf("%s keeps %d bytes of snapshots, want none", name, bytes)
		}
		total += bytes
	}
	if total > 1<<20 {
		t.Fatalf("the six kernels keep %.1f KB of snapshots, want at most 1024", float64(total)/1024)
	}
}

// TestWholeRunsStartAtReset: the run that constructs a runner, the golden
// re-run, an injected run whose tick the golden run never reaches (it cannot
// fire) and one with every live scalar armed never to fire are whole runs
// from Reset, which never stop where they converge — the ledger's set-up,
// golden and armed-to-the-end timings measure those — and a tick-0 injection
// starts there too; a no-op one stops at the first point a convergent kernel
// has.
func TestWholeRunsStartAtReset(t *testing.T) {
	for _, name := range bench.Names() {
		w, r := newWatched(t, name)
		isWhole := func(what string) {
			t.Helper()
			if len(w.runs) != 1 || w.runs[0] != (run{0, r.TotalTicks, -1}) {
				t.Errorf("%s: %s made the runs %+v; want one of all %d ticks from Reset", name, what, w.runs, r.TotalTicks)
			}
		}
		isWhole("the construction")
		whole := func(what string, f func()) {
			t.Helper()
			w.runs = nil
			f()
			isWhole(what)
		}
		whole("the golden re-run", func() { r.RunGolden() })
		for _, tick := range []int{-1, r.TotalTicks, r.TotalTicks + 7} {
			whole(fmt.Sprintf("a run injected at tick %d", tick), func() {
				res := r.RunInjected(tick, func() { t.Errorf("%s: an injection at tick %d fired", name, tick) })
				if res.Status != bench.Completed || res.Injected || res.Ticks != r.TotalTicks || res.Work != r.GoldenWork || !bench.CompareExact(r.Golden, res.Output) {
					t.Errorf("%s: a run injected at tick %d is not the golden run: %+v", name, tick, res)
				}
			})
		}
		armAll := func() {
			for _, s := range w.Registry().Live() {
				if a, ok := s.(state.Armable); ok {
					a.Arm(math.MaxInt32, fault.Single, nil)
				}
			}
		}
		whole("a run with every live scalar armed never to fire", func() { r.RunInjected(0, armAll) })
		first := 1 // the first resume point past tick 0
		for first < r.TotalTicks && r.ResumePoint(first) != first {
			first++
		}
		fired := false
		res := r.RunInjected(0, func() { fired = true })
		_, convergent := w.Benchmark.(bench.Convergent)
		if last := w.last(); !fired || last.start != 0 || convergent != (last.converged == first) || !bench.CompareExact(r.Golden, res.Output) {
			t.Errorf("%s: a no-op injection at tick 0 fired %v, started at tick %d and stopped at %d: %+v", name, fired, last.start, last.converged, res)
		}
	}
}
