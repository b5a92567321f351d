package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"phirel/internal/analysis"
	"phirel/internal/beam"
	"phirel/internal/bench"
	"phirel/internal/core"
	"phirel/internal/distrib"
	"phirel/internal/engine"
	"phirel/internal/fault"
	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
	"phirel/internal/phi"
	"phirel/internal/serve"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// ledger measures each layer alone, from outside, by timing calls into its
// public functions on inputs made from the seed. Its numbers do not depend
// on which workload the traced run is for.
type ledger struct {
	cfg config
	t   *tally
	m   map[string]float64
}

// runLedger returns the workload-independent part of the per-layer set.
func runLedger(ctx context.Context, cfg config, t *tally) map[string]float64 {
	l := &ledger{cfg: cfg, t: t, m: map[string]float64{}}
	for _, k := range kernels {
		t.op(l.kernel(k), "ledger: kernel "+k)
	}
	t.op(l.beamFilter(), "ledger: beam filter")
	t.op(l.engine(ctx), "ledger: engine")
	t.op(l.sweepAlgebra(ctx), "ledger: sweep algebra")
	t.op(l.procStart(ctx), "ledger: process start")
	t.op(l.handlers(ctx), "ledger: serve handlers")
	t.op(l.monitor(ctx), "ledger: monitor")
	return l.m
}

// sample times iters calls of f one by one and returns the median, in
// seconds.
func (l *ledger) sample(f func()) float64 {
	var xs []float64
	for i := 0; i < l.cfg.sc.iters; i++ {
		start := time.Now()
		f()
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs)
}

// perCall times n back-to-back calls of f and returns seconds per call, for
// calls too short to time one by one.
func perCall(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start).Seconds() / float64(n)
}

// neverFires is an arming delay no run's load count reaches.
const neverFires = math.MaxInt32

// kernel measures one workload's kernel, trial and cell layers.
func (l *ledger) kernel(name string) error {
	b := strings.ToLower(name)
	var inj *core.Injector
	var err error
	l.m["core."+b+".setup_ms"] = 1e3 * l.sample(func() {
		if inj != nil {
			inj.Runner.Close()
		}
		inj, err = core.NewInjector(name, benchSeed, state.ByFrameThenVariable)
	})
	if err != nil {
		return err
	}
	defer inj.Runner.Close()
	run := inj.Runner

	l.m["bench."+b+".golden_ms"] = 1e3 * l.sample(func() { run.RunGolden() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < l.cfg.sc.iters; i++ {
		run.RunGolden()
	}
	runtime.ReadMemStats(&after)
	l.m["bench."+b+".allocs"] = float64(after.Mallocs-before.Mallocs) / float64(l.cfg.sc.iters)

	// Arming every live scalar with a delay that never fires sends the
	// kernel down its cell-driven path without corrupting anything, so the
	// output must still equal the golden one.
	rng := stats.NewRNG(l.cfg.seed)
	armAll := func() {
		for _, s := range inj.Bench.Registry().Live() {
			if a, ok := s.(state.Armable); ok {
				a.Arm(neverFires, fault.Single, rng)
			}
		}
	}
	var armed bench.RawResult
	l.m["bench."+b+".armed_ms"] = 1e3 * l.sample(func() { armed = run.RunInjected(0, armAll) })
	l.t.check(armed.Status == bench.Completed && bench.CompareExact(run.Golden, armed.Output),
		"%s: a run with every scalar armed and none fired differs from the golden run", name)

	l.m["bench."+b+".reset_us"] = 1e6 * l.sample(inj.Bench.Reset)
	out := run.RunGolden().Output
	l.m["analysis."+b+".compare_us"] = 1e6 * l.sample(func() { analysis.Compare(run.Golden, out) })

	const injections = 64
	start := time.Now()
	for i := 0; i < injections; i++ {
		inj.InjectOne(fault.Models[i%len(fault.Models)], stats.NewRNG(stats.Mix64(l.cfg.seed, uint64(i))))
	}
	l.m["core."+b+".inject_ms"] = 1e3 * time.Since(start).Seconds() / injections

	const runs = 64
	start = time.Now()
	res, err := beam.Run(beam.Config{
		Benchmark: name, Runs: runs, Seed: l.cfg.seed, BenchSeed: benchSeed, Workers: 1, DisableECC: true,
	})
	if err != nil {
		return err
	}
	l.m["beam."+b+".noecc_run_us"] = 1e6 * time.Since(start).Seconds() / runs
	l.t.check(res.Outcomes.Total() == runs, "%s: beam tally does not sum to %d runs", name, runs)
	return nil
}

// beamFilter measures what a run the device model filters out costs, and the
// exact share of protected runs that get past the filter to a kernel.
func (l *ledger) beamFilter() error {
	dev := phi.NewKNC3120A()
	profile, err := phi.ProfileFor("DGEMM")
	if err != nil {
		return err
	}
	rng := stats.NewRNG(l.cfg.seed)
	l.m["phi.sample_fault_ns"] = 1e9 * perCall(100000, func() { dev.SampleFault(rng, profile) })

	const runs = 2000
	res, err := beam.Run(beam.Config{Benchmark: "DGEMM", Runs: runs, Seed: l.cfg.seed, BenchSeed: benchSeed, Workers: 1})
	if err != nil {
		return err
	}
	l.m["beam.reach_frac"] = float64(res.Runs-res.CorrectedByECC-res.Outcomes.DUEMCA) / float64(res.Runs)
	return nil
}

// engine measures the campaign engine with a trial that does nothing.
func (l *ledger) engine(ctx context.Context) error {
	const trials = 200000
	start := time.Now()
	_, err := engine.Run(ctx, engine.Config[int, *int]{
		N: trials, Seed: l.cfg.seed, Workers: l.cfg.nproc,
		NewWorker: func(int) (engine.Experiment[int], error) {
			return func(i int, _ *stats.RNG) int { return i }, nil
		},
		NewShard: func(int) *int { return new(int) },
		Fold:     func(*int, int) {},
	})
	l.m["engine.overhead_ns"] = 1e9 * time.Since(start).Seconds() / trials
	return err
}

// spec is the ledger's reference sweep: the fanout_ckpt grid, so that encode,
// decode and merge are timed on an artifact of the size that workload moves.
func (l *ledger) spec() fleet.Sweep { return fanoutSpec(l.cfg, l.cfg.seed) }

// sweepAlgebra measures the sweep layer's pure functions on the reference
// artifact, and what fanning out K ways in process adds to a monolithic run.
func (l *ledger) sweepAlgebra(ctx context.Context) error {
	spec := l.spec()
	// The monolithic base is the faster of two runs, so that the first
	// run's cold start is not credited to the fan-outs that follow it.
	var full *fleet.SweepResult
	var mono time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		res, err := spec.Run(ctx)
		if err != nil {
			return err
		}
		if took := time.Since(start); i == 0 || took < mono {
			mono = took
		}
		full = res
	}
	art, err := encode(full)
	if err != nil {
		return err
	}

	l.m["fleet.hash_us"] = 1e6 * l.sample(func() { spec.CanonicalHash() })
	l.m["fleet.encode_ms"] = 1e3 * l.sample(func() { encode(full) })
	l.m["fleet.decode_ms"] = 1e3 * l.sample(func() { fleet.ReadJSON(bytes.NewReader(art)) })

	double := spec
	double.N, double.BeamRuns = 2*spec.N, 2*spec.BeamRuns
	plans, err := double.PlanWithPrefix(spec.N, spec.BeamRuns, 1)
	if err != nil {
		return err
	}
	l.m["fleet.slice_us"] = 1e6 * l.sample(func() { _, err = fleet.SliceResult(full, double, plans[0]) })
	if err != nil {
		return err
	}

	for _, k := range []int{1, 4, 16} {
		dir, err := freshDir(l.cfg, fmt.Sprintf("ledger-k%d", k))
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		merged, err := distrib.Run(ctx, spec, distrib.Options{
			Shards: k, MaxConcurrent: l.cfg.nproc, Dir: dir, Launcher: inProcess,
		})
		if err != nil {
			return err
		}
		l.m[fmt.Sprintf("distrib.overhead_k%d_ms", k)] = 1e3 * (time.Since(start) - mono).Seconds()
		got, err := encode(merged)
		l.t.check(err == nil && bytes.Equal(got, art), "a %d-way in-process fan-out merged an artifact other than the monolithic run's", k)
		if k == 1 {
			continue
		}
		parts := make([]*fleet.SweepResult, k)
		for i := range parts {
			if parts[i], err = fleet.ReadShardFile(distrib.PartialPath(dir, i, k)); err != nil {
				return err
			}
		}
		l.m[fmt.Sprintf("fleet.merge_k%d_ms", k)] = 1e3 * l.sample(func() { _, err = fleet.MergeSweepResults(parts...) })
		if err != nil {
			return err
		}
	}
	return nil
}

// procStart measures what running a plan in a worker process costs over
// running it in this one: exec, runtime start, flag and spec parsing.
func (l *ledger) procStart(ctx context.Context) error {
	if l.cfg.worker == "" {
		return nil
	}
	dir, err := freshDir(l.cfg, "ledger-proc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spec := fleet.Sweep{
		Benchmarks: []string{"NW"}, Models: []fault.Model{fault.Single}, N: 1,
		Seed: l.cfg.seed, BenchSeed: benchSeed, Workers: 1,
	}
	plan, err := spec.Plan(0, 1)
	if err != nil {
		return err
	}
	task := distrib.Task{Count: 1, SpecPath: dir + "/spec.json", OutPath: dir + "/out.json", Plan: &plan}
	if err := spec.WriteSpecFile(task.SpecPath); err != nil {
		return err
	}
	execd := l.sample(func() {
		cmd := exec.CommandContext(ctx, l.cfg.worker, distrib.WorkerArgs(task, false)...)
		if out, runErr := cmd.CombinedOutput(); runErr != nil {
			err = fmt.Errorf("%s: %w: %s", l.cfg.worker, runErr, out)
		}
	})
	if err != nil {
		return err
	}
	inProc := l.sample(func() { _, err = runShard(ctx, task) })
	l.m["distrib.proc_start_ms"] = 1e3 * (execd - inProc)
	return err
}

// handlers measures the service's handlers with no socket in the way: each
// is called directly with a recorded request.
func (l *ledger) handlers(ctx context.Context) error {
	dir, err := freshDir(l.cfg, "ledger-serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sched, err := distrib.NewScheduler(distrib.Options{
		Shards: 2, MaxConcurrent: l.cfg.nproc, Dir: dir + "/jobs", Launcher: inProcess,
	})
	if err != nil {
		return err
	}
	defer sched.Close()
	h := serve.New(sched, serve.WithCacheDir(dir+"/cache")).Handler()

	call := func(method, path, body, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	specBody := func(family int) (fleet.Sweep, string, error) {
		s := serveSpec(l.cfg, family)
		body, err := s.SpecString()
		return s, body, err
	}
	// until polls the result of sweep id until it is servable.
	until := func(id string) error {
		for {
			switch code := call(http.MethodGet, "/v1/sweeps/"+id+"/result", "", "").Code; code {
			case http.StatusOK:
				return nil
			case http.StatusConflict:
				time.Sleep(pollEvery)
			default:
				return fmt.Errorf("GET result of %.12s answered %d", id, code)
			}
		}
	}

	// Misses: each POST admits a sweep nobody asked for before. The sweeps
	// are left to finish before anything else is timed.
	var missUs []float64
	var ids []string
	for f := 0; f < l.cfg.sc.iters; f++ {
		s, body, err := specBody(f)
		if err != nil {
			return err
		}
		start := time.Now()
		w := call(http.MethodPost, "/v1/sweeps", body, "")
		missUs = append(missUs, 1e6*time.Since(start).Seconds())
		if !l.t.check(w.Code == http.StatusAccepted, "POST of a new spec answered %d", w.Code) {
			return fmt.Errorf("POST of a new spec answered %d: %s", w.Code, w.Body)
		}
		ids = append(ids, s.CanonicalHash())
	}
	l.m["serve.post_miss_us"] = median(missUs)
	for _, id := range ids {
		if err := until(id); err != nil {
			return err
		}
	}

	_, body, err := specBody(0)
	if err != nil {
		return err
	}
	base := "/v1/sweeps/" + ids[0]
	expect := func(name string, unit float64, want int, method, path, body, inm string) {
		var code int
		l.m[name] = unit * l.sample(func() { code = call(method, path, body, inm).Code })
		l.t.check(code == want, "%s %s answered %d, want %d", method, path, code, want)
	}
	expect("serve.post_hit_us", 1e6, http.StatusOK, http.MethodPost, "/v1/sweeps", body, "")
	expect("serve.result_200_us", 1e6, http.StatusOK, http.MethodGet, base+"/result", "", "")
	expect("serve.result_304_us", 1e6, http.StatusNotModified, http.MethodGet, base+"/result", "", `"`+ids[0]+`"`)
	expect("serve.status_us", 1e6, http.StatusOK, http.MethodGet, base, "", "")
	expect("serve.list_ms", 1e3, http.StatusOK, http.MethodGet, "/v1/sweeps", "", "")
	expect("serve.stats_us", 1e6, http.StatusOK, http.MethodGet, "/v1/stats", "", "")
	expect("serve.figures_ms", 1e3, http.StatusOK, http.MethodGet, base+"/figures", "", "")
	expect("serve.monitor_ms", 1e3, http.StatusOK, http.MethodGet, base+"/monitor", "", "")
	return nil
}

// monitor measures the reliability monitor's surfaces, and what tapping a
// sweep's record streams into a monitor adds to the sweep. The tapped sweep
// must encode the same artifact as the untapped one.
func (l *ledger) monitor(ctx context.Context) error {
	spec := l.spec()
	spec.N, spec.BeamRuns = max(1, spec.N/2), max(1, spec.BeamRuns/2)

	var plainS, tappedS []float64
	var plainArt, tappedArt []byte
	var full *fleet.SweepResult
	var mon *monitor.Monitor
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := spec.Run(ctx)
		if err != nil {
			return err
		}
		plainS = append(plainS, time.Since(start).Seconds())
		if plainArt, err = encode(res); err != nil {
			return err
		}
		full = res

		if mon, err = monitor.New(monitor.Config{}); err != nil {
			return err
		}
		tapped := spec
		tapped.ObserveInjection, tapped.ObserveBeam = mon.ObserveInjection, mon.ObserveBeam
		start = time.Now()
		if res, err = tapped.Run(ctx); err != nil {
			return err
		}
		tappedS = append(tappedS, time.Since(start).Seconds())
		if tappedArt, err = encode(res); err != nil {
			return err
		}
	}
	l.m["monitor.tap_overhead_frac"] = median(tappedS)/median(plainS) - 1
	l.t.check(bytes.Equal(plainArt, tappedArt), "a sweep tapped by a monitor encoded an artifact other than the untapped sweep's")
	l.t.check(mon.Snapshot().Trials == specTrials(spec), "the monitor saw %d records of a %d-trial sweep", mon.Snapshot().Trials, specTrials(spec))

	inj, err := core.NewInjector("NW", benchSeed, state.ByFrameThenVariable)
	if err != nil {
		return err
	}
	defer inj.Runner.Close()
	rec := inj.InjectOne(fault.Single, stats.NewRNG(l.cfg.seed))
	l.m["monitor.observe_ns"] = 1e9 * perCall(100000, func() { mon.ObserveInjection(rec) })
	l.m["monitor.snapshot_us"] = 1e6 * l.sample(func() { mon.Snapshot() })
	l.m["monitor.from_sweep_ms"] = 1e3 * l.sample(func() { _, err = monitor.FromSweep(full, monitor.Config{}) })
	l.m["figures.groups_ms"] = 1e3 * l.sample(func() { figures.SweepGroups(full) })
	return err
}
