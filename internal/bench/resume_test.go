package bench_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"phirel/internal/beam"
	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/phi"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// watched runs a kernel and keeps the context of its current run, so a test
// can read the supervisor's counters where an injection fires and count the
// ticks a run executed. It forwards the kernel's resume points and its
// convergence check; a kernel without them stays without.
type watched struct {
	bench.Benchmark
	ctx       *bench.Ctx
	started   int // the tick the last run started at
	executed  int // ticks executed by the runs so far
	converged int // the tick the last run stopped at as converged, or -1
}

func (w *watched) Run(ctx *bench.Ctx) {
	defer w.watch(ctx)()
	w.Benchmark.Run(ctx)
}

func (w *watched) SavePoint(tick int) (*bench.Snapshot, bool) {
	if k, ok := w.Benchmark.(bench.Resumable); ok {
		return k.SavePoint(tick)
	}
	return nil, false
}

func (w *watched) Resume(ctx *bench.Ctx, tick int, s *bench.Snapshot, golden bench.Output) {
	defer w.watch(ctx)()
	w.Benchmark.(bench.Resumable).Resume(ctx, tick, s, golden)
}

func (w *watched) Converged(tick int, s *bench.Snapshot, golden bench.Output) (kept int, ok bool) {
	k, convergent := w.Benchmark.(bench.Convergent)
	if !convergent {
		return 0, false
	}
	if kept, ok = k.Converged(tick, s, golden); ok {
		w.converged = tick
	}
	return kept, ok
}

// watch starts counting a run; the count ends where the run does, a
// converged run's at the point it stopped at.
func (w *watched) watch(ctx *bench.Ctx) func() {
	w.ctx, w.started, w.converged = ctx, ctx.Ticks(), -1
	return func() { w.executed += ctx.Ticks() - w.started }
}

func newWatched(t *testing.T, name string) (*watched, *bench.Runner) {
	t.Helper()
	b, err := bench.New(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &watched{Benchmark: b, converged: -1}
	r, err := bench.NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, r
}

// siteState is what a record can show of one site: its name, kind and every
// byte of its value.
type siteState struct {
	Frame, Name string
	Kind        state.Kind
	Value       any
}

// liveState copies every live site of reg, frame by frame.
func liveState(t *testing.T, reg *state.Registry) []siteState {
	var out []siteState
	for _, f := range reg.Frames() {
		for _, s := range f.Sites() {
			var v any
			switch s := s.(type) {
			case *state.Cell[int]:
				v = s.Load()
			case *state.Cell[float64]:
				v = s.Load()
			case *state.Cell[float32]:
				v = s.Load()
			case *state.Buf[float64]:
				v = append([]float64(nil), s.Data...)
			case *state.Buf[float32]:
				v = append([]float32(nil), s.Data...)
			case *state.Buf[int32]:
				v = append([]int32(nil), s.Data...)
			case *state.Buf[int]:
				v = append([]int(nil), s.Data...)
			default:
				t.Fatalf("site %s has a type this test cannot read: %T", s.Name(), s)
			}
			if a, ok := s.(state.Armable); ok && a.Armed() {
				t.Fatalf("%s is armed at the tick of a run nobody armed", s.Name())
			}
			out = append(out, siteState{f.Name, s.Name(), s.Kind(), v})
		}
	}
	return out
}

// tickState is everything of a run that an injection at a tick can see or
// that the rest of the run depends on.
type tickState struct {
	Ticks int
	Work  int64
	Sites []siteState
}

// TestResumeMatchesReset is the byte identity of resumed runs, by
// construction: for every kernel and every tick, the run RunInjected starts
// at the tick's resume point and the run it starts at Reset under the seam
// must find the same state at the tick — every live site's frame, name, kind
// and bytes, the supervisor's tick and work counters — and, after the same
// seeded corruption of a site picked there, end in the same RawResult:
// status, panic message, ticks, work and output. The corruptions are drawn
// as a campaign's are (a buffer element at once, a scalar armed with a
// delay), so the suffixes include crashes and watchdog hangs.
func TestResumeMatchesReset(t *testing.T) {
	models := fault.Models
	if testing.Short() {
		models = []fault.Model{fault.Single, fault.Random}
	}
	outcomes := map[bench.Status]int{}
	for _, name := range bench.Names() {
		w, r := newWatched(t, name)
		points, _ := r.ResumePoints()
		stride := 1
		if testing.Short() {
			stride = r.TotalTicks/8 | 1 // odd: the ticks tried fall between the points too
		}
		resumed := 0
		for tick := 0; tick < r.TotalTicks; tick += stride {
			if r.ResumePoint(tick) > 0 {
				resumed++
			}
			for _, m := range models {
				seed := stats.Mix64(uint64(tick), uint64(m))
				run := func(fromReset bool) (tickState, endState) {
					bench.SetForceReset(fromReset)
					defer bench.SetForceReset(false)
					var at tickState
					rng := stats.NewRNG(seed)
					res := r.RunInjected(tick, func() {
						at = tickState{w.ctx.Ticks(), w.ctx.WorkDone(), liveState(t, w.Registry())}
						corrupt(w.Registry(), rng, m)
					})
					return at, endOf(res)
				}
				wantAt, want := run(true)
				gotAt, got := run(false)
				if !reflect.DeepEqual(gotAt, wantAt) {
					t.Fatalf("%s tick %d: resumed at %d, the run finds another state than from Reset:\n%s",
						name, tick, r.ResumePoint(tick), diffStates(gotAt, wantAt))
				}
				if !reflect.DeepEqual(got, want) {
					got.Output, want.Output = nil, nil
					t.Fatalf("%s tick %d %s: resumed at %d, the run ends differently than from Reset (outputs aside):\n resumed %+v\n reset   %+v",
						name, tick, m, r.ResumePoint(tick), got, want)
				}
				outcomes[want.Status]++
			}
		}
		t.Logf("%s: %d resume points; %d of %d ticks tried resume past Reset", name, points, resumed, (r.TotalTicks+stride-1)/stride)
		if _, resumable := w.Benchmark.(bench.Resumable); resumable && (points == 0 || resumed == 0) {
			t.Errorf("%s saves resume points, yet has %d and %d ticks used one", name, points, resumed)
		}
	}
	t.Logf("suffixes compared: %d completed, %d crashed, %d hung", outcomes[bench.Completed], outcomes[bench.Crashed], outcomes[bench.Hung])
	if !testing.Short() && (outcomes[bench.Crashed] == 0 || outcomes[bench.Hung] == 0) {
		t.Errorf("the corrupted suffixes hold %d crashes and %d hangs, want some of each", outcomes[bench.Crashed], outcomes[bench.Hung])
	}
}

// corrupt picks a live site of reg as a by-frame campaign does and corrupts
// it as one would: a buffer element at once, a scalar armed with a delay.
func corrupt(reg *state.Registry, rng *stats.RNG, m fault.Model) {
	frames := reg.Frames()
	f, i := state.PickIn(frames, rng, state.ByFrameThenVariable)
	site := frames[f].Sites()[i]
	if a, ok := site.(state.Armable); ok {
		a.Arm(rng.Intn(64), m, rng.Split())
	} else {
		site.Corrupt(rng, m)
	}
}

// TestConvergedMatchesSuffix is the byte identity of converged runs, by
// construction: for every kernel that can tell a run has rejoined the golden
// run, seeded corruptions drawn as TestResumeMatchesReset draws them, at
// uniform ticks, must end in the same RawResult — status, panic message,
// ticks, work and output bits — whether the run stops where it converges
// or, under the seam, executes its suffix to the end. Runs the check refuses
// are compared too: asking must change nothing.
func TestConvergedMatchesSuffix(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 100
	}
	for _, name := range bench.Names() {
		w, r := newWatched(t, name)
		if _, ok := w.Benchmark.(bench.Convergent); !ok {
			continue
		}
		converged := 0
		for i := 0; i < trials; i++ {
			m := fault.Models[i%len(fault.Models)]
			run := func(fullSuffix bool) (int, endState) {
				bench.SetForceSuffix(fullSuffix)
				defer bench.SetForceSuffix(false)
				rng := stats.NewRNG(stats.Mix64(0xc0, uint64(i)))
				tick := rng.Intn(r.TotalTicks)
				res := r.RunInjected(tick, func() { corrupt(w.Registry(), rng, m) })
				return tick, endOf(res)
			}
			_, want := run(true)
			tick, got := run(false)
			if w.converged >= 0 {
				converged++
			}
			if !reflect.DeepEqual(got, want) {
				got.Output, want.Output = nil, nil
				t.Fatalf("%s trial %d, tick %d %s: converged at %d, the run ends differently than its full suffix (outputs aside):\n converged %+v\n suffix    %+v",
					name, i, tick, m, w.converged, got, want)
			}
		}
		t.Logf("%-8s %d of %d corrupted runs converged", name, converged, trials)
		if converged == 0 || converged == trials {
			t.Errorf("%s: %d of %d runs converged, want some and not all", name, converged, trials)
		}
	}
}

// endState is a RawResult with its output as bit patterns, so that a NaN an
// injection produced compares equal to itself.
type endState struct {
	bench.RawResult
	Output []uint64
}

func endOf(res bench.RawResult) endState {
	e := endState{RawResult: res}
	for _, v := range res.Output.Vals {
		e.Output = append(e.Output, math.Float64bits(v))
	}
	e.RawResult.Output.Vals = nil
	return e
}

// diffStates names the first difference between two tick states.
func diffStates(got, want tickState) string {
	if got.Ticks != want.Ticks || got.Work != want.Work {
		return fmt.Sprintf("ticks %d work %d, want ticks %d work %d", got.Ticks, got.Work, want.Ticks, want.Work)
	}
	if len(got.Sites) != len(want.Sites) {
		return fmt.Sprintf("%d live sites, want %d", len(got.Sites), len(want.Sites))
	}
	for i, g := range got.Sites {
		w := want.Sites[i]
		if g.Frame != w.Frame || g.Name != w.Name || g.Kind != w.Kind {
			return fmt.Sprintf("site %d is %s/%s (%s), want %s/%s (%s)", i, g.Frame, g.Name, g.Kind, w.Frame, w.Name, w.Kind)
		}
		if reflect.DeepEqual(g.Value, w.Value) {
			continue
		}
		gv, wv := reflect.ValueOf(g.Value), reflect.ValueOf(w.Value)
		if gv.Kind() != reflect.Slice {
			return fmt.Sprintf("%s/%s = %v, want %v", g.Frame, g.Name, g.Value, w.Value)
		}
		for j := 0; j < gv.Len(); j++ {
			if !reflect.DeepEqual(gv.Index(j).Interface(), wv.Index(j).Interface()) {
				return fmt.Sprintf("%s/%s[%d] = %v, want %v", g.Frame, g.Name, j, gv.Index(j), wv.Index(j))
			}
		}
	}
	return "no difference found"
}

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

// TestResumeRecordsMatchReset is the byte identity of what campaigns
// publish: every InjectOne record, for each kernel under every fault model
// and selection policy, and every beam record on both devices with ECC off
// (the arm whose faults reach the kernels), must be the same whether runs
// start at their resume points or, under the seam, at Reset.
func TestResumeRecordsMatchReset(t *testing.T) {
	recordsMatch(t, bench.SetForceReset, "resumed", "reset")
}

// TestConvergedRecordsMatchSuffix is the same identity for the runs that
// stop where they converge, against their full suffixes under the seam.
func TestConvergedRecordsMatchSuffix(t *testing.T) {
	recordsMatch(t, bench.SetForceSuffix, "converged", "suffix")
}

// recordsMatch fails t unless the campaigns of every kernel publish the same
// records with the seam set (want) and not (got).
func recordsMatch(t *testing.T, seam func(bool), got, want string) {
	trials, runs := 20, 150
	if testing.Short() {
		trials, runs = 1, 20
	}
	records := func(name string, seamed bool) (inj []core.InjectionRecord, beams []beam.Record) {
		seam(seamed)
		defer seam(false)
		in, err := core.NewInjector(name, 1, state.ByFrameThenVariable)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []state.Policy{state.ByFrameThenVariable, state.ByVariable, state.ByBytes} {
			in.Policy = policy
			for _, m := range fault.Models {
				for i := 0; i < trials; i++ {
					seed := stats.Mix64(uint64(policy)<<8|uint64(m), uint64(i))
					inj = append(inj, in.InjectOne(m, stats.NewRNG(seed)))
				}
			}
		}
		for _, key := range phi.DeviceNames() {
			dev, err := phi.NewDevice(key)
			if err != nil {
				t.Fatal(err)
			}
			res, err := beam.Run(beam.Config{Benchmark: name, Runs: runs, Seed: 29, BenchSeed: 1,
				Workers: 1, Device: dev, DisableECC: true, KeepRecords: true})
			if err != nil {
				t.Fatal(err)
			}
			beams = append(beams, res.Records...)
		}
		return inj, beams
	}
	for _, name := range bench.Names() {
		wantInj, wantBeam := records(name, true)
		gotInj, gotBeam := records(name, false)
		for i := range wantInj {
			if !reflect.DeepEqual(gotInj[i], wantInj[i]) {
				t.Fatalf("%s injection %d:\n %-9s %+v\n %-9s %+v", name, i, got, gotInj[i], want, wantInj[i])
			}
		}
		for i := range wantBeam {
			if !reflect.DeepEqual(gotBeam[i], wantBeam[i]) {
				t.Fatalf("%s beam run %d:\n %-9s %+v\n %-9s %+v", name, i, got, gotBeam[i], want, wantBeam[i])
			}
		}
		if len(gotInj) != len(wantInj) || len(gotBeam) != len(wantBeam) {
			t.Fatalf("%s: %d and %d records %s, %d and %d %s", name, len(gotInj), len(gotBeam), got, len(wantInj), len(wantBeam), want)
		}
	}
}

// TestResumeExecutedTicks counts what resuming saves, exactly: over a seeded
// campaign per kernel, every trial that runs must start at the resume point
// of its tick, and the ticks the campaign executes must be those it executes
// from Reset less the ticks before those points — the suffixes, crashes and
// hangs included, are the same runs. The log gives the executed ticks as a
// share of one golden run per trial that ran: about the half a uniform tick
// leaves after it, plus the kernel's residual.
func TestResumeExecutedTicks(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 40
	}
	for _, name := range bench.Names() {
		w, r := newWatched(t, name)
		in := &core.Injector{Bench: w, Runner: r}
		campaign := func(fromReset bool) (ran, executed, skipped int) {
			bench.SetForceReset(fromReset)
			defer bench.SetForceReset(false)
			w.executed = 0
			for i := 0; i < trials; i++ {
				before := w.executed
				rec := in.InjectOne(fault.Models[i%len(fault.Models)], stats.NewRNG(stats.Mix64(0xe1, uint64(i))))
				if !rec.Fired {
					if w.executed != before {
						t.Fatalf("%s trial %d never fired, yet ran", name, i)
					}
					continue
				}
				ran++
				if want := r.ResumePoint(rec.Tick); w.started != want {
					t.Fatalf("%s trial %d at tick %d started at tick %d, want %d", name, i, rec.Tick, w.started, want)
				}
				skipped += w.started
			}
			return ran, w.executed, skipped
		}
		ranReset, fromReset, none := campaign(true)
		ran, resumed, skipped := campaign(false)
		whole := float64(ran * r.TotalTicks)
		t.Logf("%-8s %3d of %d trials ran: %6d ticks executed of %6d from Reset, %4.1f %% of a run per trial against %5.1f %%",
			name, ran, trials, resumed, fromReset, 100*float64(resumed)/whole, 100*float64(fromReset)/whole)
		if none != 0 || ran != ranReset || resumed != fromReset-skipped {
			t.Errorf("%s: %d trials executed %d ticks resumed, %d trials %d ticks from Reset, %d ticks before the resume points (%d under the seam)",
				name, ran, resumed, ranReset, fromReset, skipped, none)
		}
		if _, resumable := w.Benchmark.(bench.Resumable); resumable && float64(resumed) > 0.75*float64(fromReset) {
			t.Errorf("%s: resuming executes %d ticks of the %d from Reset, want under three quarters", name, resumed, fromReset)
		}
	}
}

// TestConvergedTicksSkipped counts what stopping where a run converges
// saves, exactly: over a seeded campaign per kernel, every trial that stops
// early must stop at a resume point past its tick and complete — Masked, or
// an SDC its fault wrote into output the rest never writes — and the
// ticks the campaign executes must be those it executes under the seam, which
// runs every suffix to its end, less the ticks from each stop to the end of
// the run. The log gives the converged share of the trials that ran and the
// executed ticks with and without the exit.
func TestConvergedTicksSkipped(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 40
	}
	for _, name := range bench.Names() {
		w, r := newWatched(t, name)
		in := &core.Injector{Bench: w, Runner: r}
		campaign := func(fullSuffix bool) (ran, converged, executed, skipped int) {
			bench.SetForceSuffix(fullSuffix)
			defer bench.SetForceSuffix(false)
			w.executed = 0
			for i := 0; i < trials; i++ {
				rec := in.InjectOne(fault.Models[i%len(fault.Models)], stats.NewRNG(stats.Mix64(0xe1, uint64(i))))
				if !rec.Fired {
					continue
				}
				ran++
				if at := w.converged; at >= 0 {
					if at <= rec.Tick || r.ResumePoint(at) != at || (rec.Outcome != bench.Masked.String() && rec.Outcome != bench.SDC.String()) {
						t.Fatalf("%s trial %d at tick %d stopped at tick %d as %s", name, i, rec.Tick, at, rec.Outcome)
					}
					converged++
					skipped += r.TotalTicks - at
				}
			}
			return ran, converged, w.executed, skipped
		}
		ranFull, none, full, _ := campaign(true)
		ran, converged, executed, skipped := campaign(false)
		t.Logf("%-8s %3d of %d trials ran, %3d converged (%4.1f %%): %6d ticks executed of %6d, %4.1f %% skipped",
			name, ran, trials, converged, 100*float64(converged)/float64(ran), executed, full, 100*float64(skipped)/float64(full))
		if none != 0 || ran != ranFull || executed != full-skipped {
			t.Errorf("%s: %d trials, %d converged, executed %d ticks; under the seam %d trials, %d converged, %d ticks; %d ticks past the stops",
				name, ran, converged, executed, ranFull, none, full, skipped)
		}
		if _, ok := w.Benchmark.(bench.Convergent); ok && converged == 0 {
			t.Errorf("%s can tell a run has converged, yet none of %d did", name, ran)
		}
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
			if w.started != 0 || w.executed != r.TotalTicks || w.converged >= 0 {
				t.Errorf("%s: %s started at tick %d and executed %d ticks, stopping at %d; want all %d from Reset",
					name, what, w.started, w.executed, w.converged, r.TotalTicks)
			}
		}
		isWhole("the construction's run")
		whole := func(what string, run func()) {
			t.Helper()
			w.executed = 0
			run()
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
		if !fired || w.started != 0 || convergent != (w.converged == first) || !bench.CompareExact(r.Golden, res.Output) {
			t.Errorf("%s: a no-op injection at tick 0 fired %v, started at tick %d and stopped at %d: %+v", name, fired, w.started, w.converged, res)
		}
	}
}
