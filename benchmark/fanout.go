package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
)

// launch is one Launcher.Launch call as the wrapping launcher saw it.
type launch struct{ start, end time.Time }

// fanoutCkpt is distrib.Run over exec'd phi-bench workers with every shard
// checkpointing: the shard and sweep layers do the work that the grids
// bypass.
type fanoutCkpt struct {
	cfg config
	t   *tally

	warm []byte // merged artifact of the warm-up, which runs repetition 0's spec
	last []byte

	// Observed over traced repetitions.
	runs                      int
	launchMs, queueMs, tailMs []float64
	straggler, shardOverMs    []float64
	ckptWall, nockptWall      []float64
	nockptRate                []float64
	attempts, ckpts           int
	ckptBytes                 int64
	ckptExtra                 time.Duration
	loadCkptMs                []float64
}

func (f *fanoutCkpt) root() string { return "distrib.run" }

// fanoutSpec is the mixed grid: every kernel under every fault model, and the
// paper's device with and without ECC.
func fanoutSpec(cfg config, seed uint64) fleet.Sweep {
	return fleet.Sweep{
		N: cfg.sc.fanN, BeamRuns: cfg.sc.fanBeamRuns, BeamECCAblation: true,
		Seed: seed, BenchSeed: benchSeed, Workers: cfg.nproc,
	}
}

// spec is the sweep of repetition r.
func (f *fanoutCkpt) spec(r int) fleet.Sweep { return fanoutSpec(f.cfg, f.cfg.family(r)) }

// ckptEvery is the checkpoint cadence that cuts a shard's longer trial range
// into fanCkptDiv chunks.
func (f *fanoutCkpt) ckptEvery() int {
	sc := f.cfg.sc
	span := max(sc.fanN, sc.fanBeamRuns) / sc.fanShards
	return max(1, span/sc.fanCkptDiv)
}

// fanOut runs one fan-out in a fresh directory. Every Launch call counts as
// an operation; seen, when non-nil, receives each one.
func (f *fanoutCkpt) fanOut(ctx context.Context, spec fleet.Sweep, ckptEvery int, seen func(launch)) (*fleet.SweepResult, error) {
	dir, err := freshDir(f.cfg, "fanout")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	worker := distrib.ExecLauncher{Command: []string{f.cfg.worker}}
	return distrib.Run(ctx, spec, distrib.Options{
		Shards: f.cfg.sc.fanShards, MaxConcurrent: f.cfg.nproc, CheckpointEvery: ckptEvery,
		Dir: dir, Retries: 1,
		Launcher: distrib.LauncherFunc(func(ctx context.Context, task distrib.Task, stderr io.Writer) error {
			l := launch{start: time.Now()}
			err := worker.Launch(ctx, task, stderr)
			l.end = time.Now()
			f.t.op(err, fmt.Sprintf("launch of shard %s", task.ShardArg()))
			if seen != nil {
				seen(l)
			}
			return err
		}),
	})
}

// run is one checkpointed fan-out plus the artifact encode.
func (f *fanoutCkpt) run(ctx context.Context, spec fleet.Sweep) ([]byte, error) {
	res, err := f.fanOut(ctx, spec, f.ckptEvery(), nil)
	if err != nil {
		return nil, err
	}
	checkTallies(f.t, res)
	return encode(res)
}

func (f *fanoutCkpt) setup(ctx context.Context) error {
	if f.cfg.worker == "" {
		return fmt.Errorf("fanout_ckpt needs the phi-bench worker binary")
	}
	art, err := f.run(ctx, f.spec(0))
	f.warm = art
	return err
}

func (f *fanoutCkpt) rep(ctx context.Context, r int) (repResult, error) {
	spec := f.spec(r)
	start := time.Now()
	art, err := f.run(ctx, spec)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	if r == 0 {
		f.t.check(bytes.Equal(art, f.warm), "repetition 0 and the warm-up ran one spec and merged different artifacts")
	}
	f.last = art
	return repResult{trials: specTrials(spec), wall: wall, coldMs: []float64{wall.Seconds() * 1e3}}, nil
}

// verify runs repetition 0's spec monolithically, in process: the merged
// artifact of the checkpointed fan-out must equal it byte for byte.
func (f *fanoutCkpt) verify(ctx context.Context) {
	res, err := f.spec(0).Run(ctx)
	if !f.t.op(err, "monolithic reference run") {
		return
	}
	ref, err := encode(res)
	if !f.t.op(err, "monolithic reference encode") {
		return
	}
	f.t.check(bytes.Equal(ref, f.warm), "the fan-out's merged artifact differs from the monolithic run of the same spec")
}

func (f *fanoutCkpt) close() {}

// traced runs the checkpointed fan-out under a distrib.run span with one
// distrib.launch child per Launch call, then the same fan-out without
// checkpoints, then every shard plan alone (see shardsAlone).
func (f *fanoutCkpt) traced(ctx context.Context, r int, rec *recorder) (time.Duration, error) {
	spec := f.spec(r)
	trace := rec.newTrace()
	var mu sync.Mutex

	var launches []launch
	root, endRoot := rec.begin(0, trace, "distrib.run")
	t0 := time.Now()
	res, err := f.fanOut(ctx, spec, f.ckptEvery(), func(l launch) {
		rec.add(root, trace, "distrib.launch", l.start, l.end)
		mu.Lock()
		launches = append(launches, l)
		mu.Unlock()
	})
	t1 := time.Now()
	endRoot()
	if err != nil {
		return 0, err
	}
	e0 := time.Now()
	art, err := encode(res)
	e1 := time.Now()
	if err != nil {
		return 0, err
	}
	f.last = art
	wall := t1.Sub(t0) + e1.Sub(e0)

	var durs []float64
	var lastEnd time.Time
	for _, l := range launches {
		durs = append(durs, l.end.Sub(l.start).Seconds()*1e3)
		f.queueMs = append(f.queueMs, l.start.Sub(t0).Seconds()*1e3)
		if l.end.After(lastEnd) {
			lastEnd = l.end
		}
	}
	f.runs++
	f.attempts += len(launches)
	f.launchMs = append(f.launchMs, durs...)
	f.tailMs = append(f.tailMs, t1.Sub(lastEnd).Seconds()*1e3)
	f.straggler = append(f.straggler, quantile(durs, 1)/median(durs))
	f.ckptWall = append(f.ckptWall, wall.Seconds())

	nroot, endNo := rec.begin(0, trace+"/nockpt", "distrib.run_nockpt")
	n0 := time.Now()
	plain, err := f.fanOut(ctx, spec, 0, func(l launch) {
		rec.add(nroot, trace+"/nockpt", "distrib.launch", l.start, l.end)
	})
	n1 := time.Now()
	endNo()
	if err != nil {
		return 0, err
	}
	plainArt, err := encode(plain)
	if err != nil {
		return 0, err
	}
	f.t.check(bytes.Equal(plainArt, art), "fan-outs with and without checkpoints merged different artifacts")
	noWall := n1.Sub(n0) + e1.Sub(e0)
	f.nockptWall = append(f.nockptWall, noWall.Seconds())
	f.nockptRate = append(f.nockptRate, float64(specTrials(spec))/noWall.Seconds())

	return wall, f.shardsAlone(ctx, spec, trace, rec)
}

// shardsAlone runs each shard plan three ways with nothing else running, as
// sibling root spans: in this process, in this process with checkpoints, and
// in a worker process with checkpoints. The first difference is what the
// checkpoints cost, the second what the process costs: start, spec parse,
// progress events and the partial's encode and write.
func (f *fanoutCkpt) shardsAlone(ctx context.Context, spec fleet.Sweep, trace string, rec *recorder) error {
	dir, err := freshDir(f.cfg, "shards")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	specPath := dir + "/spec.json"
	if err := spec.WriteSpecFile(specPath); err != nil {
		return err
	}
	shards := f.cfg.sc.fanShards
	for k := 0; k < shards; k++ {
		plan, err := spec.Plan(k, shards)
		if err != nil {
			return err
		}
		p0 := time.Now()
		plain, err := spec.RunPlan(ctx, plan)
		p1 := time.Now()
		if err != nil {
			return err
		}
		rec.add(0, fmt.Sprintf("%s/plan-%d", trace, k), "fleet.run_plan", p0, p1)

		path := fmt.Sprintf("%s/shard-%d.ckpt", dir, k)
		landed := 0
		c0 := time.Now()
		ckpt, err := spec.RunPlanCheckpointed(ctx, plan, fleet.Checkpoint{
			Out: path, Every: f.ckptEvery(),
			OnCheckpoint: func(fleet.ShardPlan) {
				landed++
				if st, err := os.Stat(path); err == nil {
					f.ckptBytes += st.Size()
				}
			},
		})
		c1 := time.Now()
		if err != nil {
			return err
		}
		rec.add(0, fmt.Sprintf("%s/plan-ckpt-%d", trace, k), "fleet.run_plan_ckpt", c0, c1)
		f.ckpts += landed
		f.ckptExtra += c1.Sub(c0) - p1.Sub(p0)

		a, errA := encode(plain)
		b, errB := encode(ckpt)
		f.t.check(errA == nil && errB == nil && bytes.Equal(a, b),
			"shard %s: plain and checkpointed runs of one plan encoded different partials", plan)

		if landed > 0 {
			l0 := time.Now()
			_, _, err := fleet.LoadCheckpoint(path, spec, plan)
			f.loadCkptMs = append(f.loadCkptMs, time.Since(l0).Seconds()*1e3)
			f.t.op(err, "loading the last checkpoint of shard "+plan.String())
		}

		task := distrib.Task{
			Shard: k, Count: shards, SpecPath: specPath, OutPath: distrib.PartialPath(dir, k, shards),
			CheckpointPath: path, CheckpointEvery: f.ckptEvery(),
		}
		x0 := time.Now()
		err = distrib.ExecLauncher{Command: []string{f.cfg.worker}}.Launch(ctx, task, io.Discard)
		x1 := time.Now()
		if !f.t.op(err, "launch of shard "+task.ShardArg()+" alone") {
			return err
		}
		rec.add(0, fmt.Sprintf("%s/alone-%d", trace, k), "distrib.launch_alone", x0, x1)
		f.shardOverMs = append(f.shardOverMs, (x1.Sub(x0)-c1.Sub(c0)).Seconds()*1e3)
	}
	return nil
}

func (f *fanoutCkpt) layers(m map[string]float64) {
	m["fleet.artifact_kb"] = float64(len(f.last)) / 1024
	if f.ckpts > 0 {
		m["fleet.ckpt_cost_ms"] = f.ckptExtra.Seconds() * 1e3 / float64(f.ckpts)
	}
	m["fleet.ckpt_kb"] = float64(f.ckptBytes) / 1024 / float64(f.runs*f.cfg.sc.fanShards)
	m["fleet.load_ckpt_ms"] = median(f.loadCkptMs)
	m["distrib.shard_overhead_ms"] = median(f.shardOverMs)
	m["distrib.queue_wait_ms"] = mean(f.queueMs)
	m["distrib.launch_ms"] = median(f.launchMs)
	m["distrib.tail_ms"] = median(f.tailMs)
	m["distrib.straggler_ratio"] = median(f.straggler)
	m["distrib.attempts"] = float64(f.attempts) / float64(f.runs)
	m["distrib.retries"] = float64(f.attempts)/float64(f.runs) - float64(f.cfg.sc.fanShards)
	m["distrib.nockpt_trials_per_s"] = median(f.nockptRate)
	m["distrib.ckpt_slowdown"] = median(f.ckptWall) / median(f.nockptWall)
}
