package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/stats"
)

// benchSeed fixes every kernel's inputs; -seed drives only the campaign
// seeds and the serve script order, so the program under test sees nothing
// but generated specs.
const benchSeed = 1

// scale sizes the workload bodies and the ledger's loops. The body sizes of
// the full scale are part of the benchmark's definition: changing one
// re-bases every number.
type scale struct {
	name   string
	setups int // set-ups per untraced run; setup_s is their median
	// minReps timed repetitions run even when -seconds is already spent;
	// peak_rss_mb is read when they are done.
	minReps int

	injectN  int // injections per cell, inject_grid
	beamRuns int // accelerated runs per cell, beam_grid

	fanN, fanBeamRuns     int // per-cell trials of the fanout_ckpt mixed grid
	fanShards, fanCkptDiv int // shards, and checkpoint chunks per shard

	serveN       int // injections per cell of a cold serve spec
	serveWarm    int // spec families of the discarded warm-up
	serveCold    int // cold (and then partial) requests per cycle
	serveHitsPer int // exact-hit round trips per cold request

	iters int // ledger: calls per microbenchmark sample set
}

var scales = map[string]scale{
	"full": {
		name: "full", setups: 3, minReps: 3,
		injectN: 48, beamRuns: 128,
		fanN: 16, fanBeamRuns: 64, fanShards: 4, fanCkptDiv: 8,
		serveN: 8, serveWarm: 20, serveCold: 40, serveHitsPer: 100,
		iters: 9,
	},
	"smoke": {
		name: "smoke", setups: 1, minReps: 2,
		injectN: 2, beamRuns: 8,
		fanN: 4, fanBeamRuns: 8, fanShards: 2, fanCkptDiv: 2,
		serveN: 2, serveWarm: 2, serveCold: 4, serveHitsPer: 5,
		iters: 3,
	},
}

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	nproc    int
	// worker is the phi-bench binary built from this checkout; empty when the
	// run execs nothing.
	worker string
	// dir is a scratch directory inside the checkout that the run owns.
	dir string
	// traceOut is where a traced run writes its spans.
	traceOut string
}

// family derives the campaign seed of repetition r: every repetition runs a
// spec no earlier one ran, so a run's median covers as many distinct trials
// as its time allows and depends less on any one seed's mix of outcomes.
func (c config) family(r int) uint64 { return stats.Mix64(c.seed, uint64(r)) }

// tally counts what the run attempted and what failed. Repetitions, shard
// launches, requests and correctness checks all count as operations.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// check counts one operation and records it as failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.failures) < 10 {
			t.failures = append(t.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// op counts one operation that returned err.
func (t *tally) op(err error, what string) bool {
	return t.check(err == nil, "%s: %v", what, err)
}

// repResult is what one timed repetition did.
type repResult struct {
	// trials is the fresh cell-weighted trials computed, and wall the time
	// they are charged to.
	trials int
	wall   time.Duration
	// coldMs holds one time-to-artifact per cold ask made.
	coldMs []float64
}

// workload is one of the four bodies. setup may be called again after close.
type workload interface {
	// root names the span that roots the workload's traces.
	root() string
	// setup builds what the repetitions need and runs the discarded warm-up.
	setup(ctx context.Context) error
	// rep runs timed repetition r with tracing off.
	rep(ctx context.Context, r int) (repResult, error)
	// traced runs repetition r recording spans, and returns the wall that
	// compares with an untraced repetition's.
	traced(ctx context.Context, r int, rec *recorder) (time.Duration, error)
	// verify runs the untimed checks of artifacts across execution paths.
	verify(ctx context.Context)
	// layers adds the per-layer metrics the traced repetitions observed.
	layers(m map[string]float64)
	close()
}

func newWorkload(cfg config, t *tally) (workload, error) {
	switch cfg.workload {
	case "inject_grid", "beam_grid":
		return &grid{cfg: cfg, t: t}, nil
	case "fanout_ckpt":
		return &fanoutCkpt{cfg: cfg, t: t}, nil
	case "serve_mix":
		return &serveMix{cfg: cfg, t: t}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// result is what one run of one workload reports.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Reps      int      `json:"reps"`
	// Metrics holds the end-to-end set of an untraced run, or the observed
	// part of the per-layer set of a traced one.
	Metrics map[string]float64 `json:"metrics"`
	// Quartiles holds the first and third quartile over repetitions of the
	// metrics that are medians over repetitions.
	Quartiles map[string][2]float64 `json:"quartiles,omitempty"`
}

// runWorkload sets the workload up, runs timed repetitions until
// cfg.seconds have passed, checks the artifacts and, in a traced run, spends
// the second half of the time on traced repetitions.
func runWorkload(ctx context.Context, cfg config) result {
	t := &tally{}
	res := result{Workload: cfg.workload, Metrics: map[string]float64{}, Quartiles: map[string][2]float64{}}
	finish := func() result {
		res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.failures
		return res
	}
	w, err := newWorkload(cfg, t)
	if !t.op(err, "workload") {
		return finish()
	}
	defer w.close()

	setups := cfg.sc.setups
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(ctx); !t.op(err, "setup") {
			return finish()
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var rates, walls, coldMs []float64
	trials, r, peakRSS := 0, 0, 0.0
	cpu0 := cpuSeconds()
	for start := time.Now(); r < cfg.sc.minReps || time.Since(start).Seconds() < budget; r++ {
		rr, err := w.rep(ctx, r)
		if !t.op(err, fmt.Sprintf("repetition %d", r)) {
			return finish()
		}
		rates = append(rates, float64(rr.trials)/rr.wall.Seconds())
		walls = append(walls, rr.wall.Seconds())
		coldMs = append(coldMs, rr.coldMs...)
		trials += rr.trials
		if r+1 == cfg.sc.minReps {
			// Read here, not at the end: a service that keeps every artifact
			// resident grows with each cycle, and a faster one fits more
			// cycles into the same seconds.
			peakRSS = peakRSSMB()
		}
	}
	cpu := cpuSeconds() - cpu0
	res.Reps = r
	w.verify(ctx)

	if !cfg.trace {
		res.Metrics["setup_s"] = median(setupS)
		res.Metrics["trials_per_s"] = median(rates)
		res.Metrics["cpu_ms_per_trial"] = cpu * 1e3 / float64(trials)
		res.Metrics["peak_rss_mb"] = peakRSS
		res.Metrics["cold_p50_ms"] = median(coldMs)
		res.Quartiles["trials_per_s"] = [2]float64{quantile(rates, 0.25), quantile(rates, 0.75)}
		res.Quartiles["cold_p50_ms"] = [2]float64{quantile(coldMs, 0.25), quantile(coldMs, 0.75)}
		return finish()
	}

	// Traced repetition i runs the spec of untraced repetition i again, so
	// that the pair differs in tracing alone.
	rec := newRecorder(cfg.workload)
	var ratios []float64
	for i, start := 0, time.Now(); i == 0 || time.Since(start).Seconds() < budget; i++ {
		pair := i % len(walls)
		wall, err := w.traced(ctx, pair, rec)
		if !t.op(err, fmt.Sprintf("traced repetition %d", i)) {
			return finish()
		}
		ratios = append(ratios, wall.Seconds()/walls[pair])
	}
	spans := rec.snapshot()
	byName, coverage := shares(spans, w.root())
	for _, name := range shareSpans {
		res.Metrics["share."+name] = byName[name]
	}
	res.Metrics["trace.self_coverage"] = coverage
	res.Metrics["trace.overhead_frac"] = median(ratios) - 1
	w.layers(res.Metrics)
	if cfg.traceOut != "" {
		t.op(writeSpans(cfg.traceOut, spans), "span file")
	}
	return finish()
}

// encode returns the artifact bytes of a sweep result.
func encode(res *fleet.SweepResult) ([]byte, error) {
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// specTrials is the cell-weighted trial count a spec asks for.
func specTrials(s fleet.Sweep) int {
	return len(s.Cells())*s.N + len(s.BeamCells())*s.BeamRuns
}

// checkTallies counts one check per cell: its outcome tally must sum to
// exactly the trials the spec asks for.
func checkTallies(t *tally, res *fleet.SweepResult) {
	for _, c := range res.Cells {
		ok := c.Result != nil && c.Result.N == res.Spec.N && c.Result.Outcomes.Total() == res.Spec.N
		t.check(ok, "cell %s/%s: tally does not sum to %d injections", c.Benchmark, c.Model, res.Spec.N)
	}
	for _, c := range res.BeamCells {
		ok := c.Result != nil && c.Result.Runs == res.Spec.BeamRuns && c.Result.Outcomes.Total() == res.Spec.BeamRuns
		t.check(ok, "beam cell %s/%s: tally does not sum to %d runs", c.Benchmark, c.Device, res.Spec.BeamRuns)
	}
}

// runShard is a shard worker in this process; it returns the spec it ran.
func runShard(ctx context.Context, task distrib.Task) (fleet.Sweep, error) {
	spec, err := fleet.ReadSpecFile(task.SpecPath)
	if err != nil {
		return spec, err
	}
	var res *fleet.SweepResult
	if task.Plan != nil {
		res, err = spec.RunPlan(ctx, *task.Plan)
	} else {
		res, err = spec.RunShard(ctx, task.Shard, task.Count)
	}
	if err != nil {
		return spec, err
	}
	return spec, res.WriteFile(task.OutPath)
}

// inProcess launches shard workers in this process.
var inProcess = distrib.LauncherFunc(func(ctx context.Context, task distrib.Task, _ io.Writer) error {
	_, err := runShard(ctx, task)
	return err
})

// rusage reads the resource usage of this process or of its waited-for
// children.
func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid who.
	_ = syscall.Getrusage(who, &ru)
	return ru
}

// cpuSeconds is the user and system CPU time of this process and of the
// children it has waited for.
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		ru := rusage(who)
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return total
}

// peakRSSMB is the larger of this process's peak resident set and the
// largest peak among the children it has waited for. Linux reports both in
// KiB.
func peakRSSMB() float64 {
	self, kids := rusage(syscall.RUSAGE_SELF), rusage(syscall.RUSAGE_CHILDREN)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}

// freshDir makes an empty directory under the run's scratch directory.
func freshDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
