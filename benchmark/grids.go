package main

import (
	"bytes"
	"context"
	"reflect"
	"time"

	"phirel/internal/beam"
	"phirel/internal/core"
	"phirel/internal/fleet"
	"phirel/internal/phi"
	"phirel/internal/stats"
)

// grid is inject_grid or beam_grid: an in-process fleet.Sweep.Run followed
// by the artifact encode, with nothing between the caller and the kernels
// but the sweep's own worker pool.
type grid struct {
	cfg config
	t   *tally

	warm []byte // artifact of the warm-up, which runs repetition 0's spec
	last []byte // artifact of the latest repetition

	// Accumulated over traced repetitions.
	runWall, replayCompute time.Duration
	w1Wall, w1Pair         time.Duration
}

func (g *grid) root() string { return "replay" }

// spec is the sweep of repetition r.
func (g *grid) spec(r int) fleet.Sweep {
	s := fleet.Sweep{Seed: g.cfg.family(r), BenchSeed: benchSeed, Workers: g.cfg.nproc}
	if g.cfg.workload == "inject_grid" {
		s.N = g.cfg.sc.injectN
		return s
	}
	s.BeamRuns = g.cfg.sc.beamRuns
	s.BeamDevices = []string{"KNC3120A", "KNC5110P"}
	s.BeamECCAblation = true
	return s
}

// run executes one sweep and encodes its artifact, checking its tallies.
func (g *grid) run(ctx context.Context, spec fleet.Sweep) (*fleet.SweepResult, []byte, error) {
	res, err := spec.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	art, err := encode(res)
	if err != nil {
		return nil, nil, err
	}
	checkTallies(g.t, res)
	return res, art, nil
}

func (g *grid) setup(ctx context.Context) error {
	_, art, err := g.run(ctx, g.spec(0))
	g.warm = art
	return err
}

func (g *grid) rep(ctx context.Context, r int) (repResult, error) {
	spec := g.spec(r)
	start := time.Now()
	_, art, err := g.run(ctx, spec)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	if r == 0 {
		g.t.check(bytes.Equal(art, g.warm), "repetition 0 and the warm-up ran one spec and encoded different artifacts")
	}
	g.last = art
	return repResult{trials: specTrials(spec), wall: wall, coldMs: []float64{wall.Seconds() * 1e3}}, nil
}

// verify has no second execution path to compare: the grids are the
// monolithic reference the other workloads are checked against.
func (g *grid) verify(context.Context) {}

func (g *grid) close() {}

// traced runs the sweep once under a fleet.run span, then replays it one
// cell at a time through the public calls a cell is made of, so that set-up,
// trials and encode each get a span. Every replayed cell must tally exactly
// what the artifact's cell did.
func (g *grid) traced(ctx context.Context, r int, rec *recorder) (time.Duration, error) {
	spec := g.spec(r)
	trace := rec.newTrace()

	t0 := time.Now()
	res, err := spec.Run(ctx)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	rec.add(0, trace+"/run", "fleet.run", t0, t1)
	g.runWall += t1.Sub(t0)

	root, endRoot := rec.begin(0, trace+"/replay", "replay")
	for i, c := range spec.Cells() {
		s0 := time.Now()
		inj, err := core.NewInjector(c.Benchmark, spec.BenchSeed, c.Policy)
		if err != nil {
			return 0, err
		}
		s1 := time.Now()
		var counts core.OutcomeCounts
		for n := 0; n < spec.N; n++ {
			// The campaign's own stream for trial n of this cell.
			rng := stats.NewRNG(stats.Mix64(c.Seed, uint64(n)))
			counts.Add(inj.InjectOne(c.Model, rng).OutcomeOf())
		}
		s2 := time.Now()
		inj.Runner.Close()
		rec.add(root, trace+"/replay", "core.setup", s0, s1)
		rec.add(root, trace+"/replay", "core.trials", s1, s2)
		g.replayCompute += s2.Sub(s0)
		g.t.check(counts == res.Cells[i].Result.Outcomes,
			"replay of cell %s/%s tallied %+v, the artifact says %+v", c.Benchmark, c.Model, counts, res.Cells[i].Result.Outcomes)
	}
	for j, c := range spec.BeamCells() {
		dev, err := phi.NewDevice(c.Device)
		if err != nil {
			return 0, err
		}
		s0 := time.Now()
		got, err := beam.Run(beam.Config{
			Benchmark: c.Benchmark, Runs: spec.BeamRuns, Seed: c.Seed, BenchSeed: spec.BenchSeed,
			Workers: 1, Device: dev, DisableECC: c.DisableECC,
		})
		s1 := time.Now()
		if err != nil {
			return 0, err
		}
		rec.add(root, trace+"/replay", "beam.run", s0, s1)
		g.replayCompute += s1.Sub(s0)
		g.t.check(reflect.DeepEqual(got, res.BeamCells[j].Result),
			"replay of beam cell %s/%s differs from the artifact's result", c.Benchmark, c.Device)
	}
	e0 := time.Now()
	art, err := encode(res)
	e1 := time.Now()
	if err != nil {
		return 0, err
	}
	rec.add(root, trace+"/replay", "fleet.encode", e0, e1)
	endRoot()
	g.last = art

	if g.w1Wall == 0 {
		// One pool worker, once: the base of the scaling efficiency.
		one := spec
		one.Workers = 1
		w0 := time.Now()
		if _, err := one.Run(ctx); err != nil {
			return 0, err
		}
		w1 := time.Now()
		rec.add(0, trace+"/run-w1", "fleet.run_w1", w0, w1)
		g.w1Wall, g.w1Pair = w1.Sub(w0), t1.Sub(t0)
	}
	return t1.Sub(t0) + e1.Sub(e0), nil
}

func (g *grid) layers(m map[string]float64) {
	workers := float64(g.cfg.nproc)
	m["fleet.artifact_kb"] = float64(len(g.last)) / 1024
	m["fleet.pool_overhead_frac"] = 1 - g.replayCompute.Seconds()/(workers*g.runWall.Seconds())
	m["fleet.scale_eff"] = g.w1Wall.Seconds() / (workers * g.w1Pair.Seconds())
}
