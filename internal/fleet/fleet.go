// Package fleet orchestrates fleets of campaigns across both of the paper's
// experiment classes. A Sweep describes the full grid — fault-injection
// cells (benchmarks × fault models × site-selection policies at N
// injections each) and accelerated neutron-beam cells (benchmarks × device
// models × ECC-ablation arms at BeamRuns each) — and Run executes every
// cell of both kinds on one shared worker pool with per-cell deterministic
// seeds derived from a single master seed. The outcome is a self-contained
// SweepResult that cmd/phi-bench produces, cmd/phi-report renders, and CI
// uploads as a JSON artifact.
//
// Every run executes one ShardPlan (Run's is the Whole plan, untagged), and
// every partial a computation meets — a shard's, a checkpoint, a cached
// prefix, a fan-out worker's — passes one check, CheckPartial, before
// anything folds it.
//
// Like bench.New, fleet resolves benchmarks through the registry: callers
// must import the workload packages (typically phirel/internal/bench/all)
// before running a sweep.
//
// The ObserveInjection/ObserveBeam hooks are handed every cell's records
// through one reorder (trace.Ordered), serially in grid-then-trial order
// at any pool size — the seam the resident reliability monitor
// (internal/monitor) is wired to. Observers are execution details like
// Workers and Progress: excluded from specs, canonical hashes, and
// artifacts, so an observed sweep's artifact is byte-identical to an
// unobserved one.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"phirel/internal/beam"
	"phirel/internal/bench"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/phi"
	"phirel/internal/state"
	"phirel/internal/stats"
	"phirel/internal/trace"
)

// Sweep specifies a grid of campaigns. The zero value of each list field
// selects the natural default (every registered benchmark, all four fault
// models, the CAROL-FI frame-then-variable policy, the paper's 3120A
// device). Injection cells run when N > 0; beam cells run when
// BeamRuns > 0; a sweep may carry either kind alone or both together.
type Sweep struct {
	// Benchmarks to sweep in injection cells (default: every registered
	// benchmark, sorted).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Models to sweep; each model is its own cell so per-model PVF keeps
	// full-N precision (default: all four paper models).
	Models []fault.Model `json:"models,omitempty"`
	// Policies to sweep (default: ByFrameThenVariable).
	Policies []state.Policy `json:"policies,omitempty"`
	// N is the number of injections per injection cell; 0 disables
	// injection cells.
	N int `json:"n"`
	// Seed is the master seed; injection cell i runs with
	// core.DeriveSeed(Seed, i) and beam cell j with the beam-salted
	// family, so every cell has an independent deterministic stream and
	// the whole sweep is reproducible from one number.
	Seed uint64 `json:"seed"`
	// BenchSeed determinises workload inputs.
	BenchSeed uint64 `json:"benchSeed"`
	// Workers is the shared pool size: how many cells run concurrently.
	// Each cell runs with a single in-cell worker, so the pool is the only
	// parallelism and results are independent of Workers (default 4).
	Workers int `json:"workers"`

	// BeamRuns is the number of accelerated runs per beam cell; 0 disables
	// beam cells.
	BeamRuns int `json:"beamRuns,omitempty"`
	// BeamBenchmarks to sweep in beam cells (default: every registered
	// benchmark with a calibrated occupancy profile — the paper's beam
	// suite plus NW, which phi models as an extension).
	BeamBenchmarks []string `json:"beamBenchmarks,omitempty"`
	// BeamDevices lists phi device registry keys (default: KNC3120A, the
	// paper's tested card).
	BeamDevices []string `json:"beamDevices,omitempty"`
	// BeamECCAblation adds a SECDED-disabled arm (the paper's A2
	// ablation) for every beam benchmark × device pair.
	BeamECCAblation bool `json:"beamECCAblation,omitempty"`

	// Progress, when non-nil, is invoked with (done, total) cells — of
	// both kinds — as the pool completes them. Calls are serialised and
	// done is monotone.
	Progress func(done, total int) `json:"-"`

	// ObserveInjection and ObserveBeam, when non-nil, receive every record
	// every cell of the matching kind produces — where a resident
	// reliability monitor (internal/monitor) is wired. They are called
	// serially, in grid-then-trial order (injection cells before beam
	// cells, each cell's trials in order; a checkpointed plan chunk by
	// chunk); every record before Run returns. A cancelled run delivers
	// the records it made, still in that order. Like Progress, observers
	// are execution detail: they are never serialised into specs and do
	// not affect the sweep's canonical hash or its artifact bytes.
	ObserveInjection func(rec core.InjectionRecord) `json:"-"`
	ObserveBeam      func(rec beam.Record)          `json:"-"`
}

// CellSpec identifies one campaign of the grid.
type CellSpec struct {
	Benchmark string       `json:"benchmark"`
	Model     fault.Model  `json:"model"`
	Policy    state.Policy `json:"policy"`
	// Seed is the cell's derived campaign seed.
	Seed uint64 `json:"seed"`
}

// CellResult pairs a cell with its campaign outcome.
type CellResult struct {
	CellSpec
	Result *core.CampaignResult `json:"result"`
}

// BeamCellSpec identifies one accelerated-beam campaign of the grid.
type BeamCellSpec struct {
	Benchmark string `json:"benchmark"`
	// Device is the phi device registry key.
	Device string `json:"device"`
	// DisableECC marks the A2 ablation arm.
	DisableECC bool `json:"disableECC,omitempty"`
	// Seed is the cell's derived campaign seed.
	Seed uint64 `json:"seed"`
}

// BeamCellResult pairs a beam cell with its campaign outcome.
type BeamCellResult struct {
	BeamCellSpec
	Result *beam.Result `json:"result"`
}

// SweepResult is the self-contained outcome of one sweep: the normalised
// spec plus one result per cell of each kind, in enumeration order.
type SweepResult struct {
	Spec      Sweep            `json:"spec"`
	Cells     []CellResult     `json:"cells,omitempty"`
	BeamCells []BeamCellResult `json:"beamCells,omitempty"`
	// Shard tags a partial produced by RunShard with its position in the
	// shard plan; nil for a monolithic or merged result.
	Shard *ShardPlan `json:"shard,omitempty"`
}

// beamGridSalt decouples beam cell seeds from the injection grid: beam cell
// j derives from Mix64(Seed^beamGridSalt, j), so adding or resizing either
// grid never re-seeds the other and pre-unification injection sweep seeds
// stay stable.
const beamGridSalt = 0x6265616d67726964 // "beamgrid"

// normalized returns a copy of s with defaults filled in.
func (s Sweep) normalized() Sweep {
	if s.N > 0 {
		if len(s.Benchmarks) == 0 {
			s.Benchmarks = bench.Names()
		}
		if len(s.Models) == 0 {
			s.Models = append([]fault.Model(nil), fault.Models...)
		}
		if len(s.Policies) == 0 {
			s.Policies = []state.Policy{state.ByFrameThenVariable}
		}
	}
	if s.BeamRuns > 0 {
		if len(s.BeamBenchmarks) == 0 {
			for _, name := range bench.Names() {
				if _, err := phi.ProfileFor(name); err == nil {
					s.BeamBenchmarks = append(s.BeamBenchmarks, name)
				}
			}
		}
		if len(s.BeamDevices) == 0 {
			s.BeamDevices = []string{phi.DefaultDevice}
		}
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	return s
}

// Cells enumerates the injection grid in deterministic order —
// benchmark-major, then policy, then model. The index into this slice keys
// each cell's derived seed, so the grid layout is part of the sweep's
// identity. A sweep with N <= 0 has no injection cells.
func (s Sweep) Cells() []CellSpec {
	s = s.normalized()
	if s.N <= 0 {
		return nil
	}
	cells := make([]CellSpec, 0, len(s.Benchmarks)*len(s.Policies)*len(s.Models))
	for _, b := range s.Benchmarks {
		for _, p := range s.Policies {
			for _, m := range s.Models {
				cells = append(cells, CellSpec{
					Benchmark: b,
					Model:     m,
					Policy:    p,
					Seed:      core.DeriveSeed(s.Seed, uint64(len(cells))),
				})
			}
		}
	}
	return cells
}

// BeamCells enumerates the beam grid in deterministic order —
// benchmark-major, then device, then ECC arm (protected first). A sweep
// with BeamRuns <= 0 has no beam cells.
func (s Sweep) BeamCells() []BeamCellSpec {
	s = s.normalized()
	if s.BeamRuns <= 0 {
		return nil
	}
	arms := []bool{false}
	if s.BeamECCAblation {
		arms = append(arms, true)
	}
	cells := make([]BeamCellSpec, 0, len(s.BeamBenchmarks)*len(s.BeamDevices)*len(arms))
	for _, b := range s.BeamBenchmarks {
		for _, d := range s.BeamDevices {
			for _, ecc := range arms {
				cells = append(cells, BeamCellSpec{
					Benchmark:  b,
					Device:     d,
					DisableECC: ecc,
					Seed:       stats.Mix64(s.Seed^beamGridSalt, uint64(len(cells))),
				})
			}
		}
	}
	return cells
}

// Run executes the sweep on one shared pool of s.Workers goroutines. Cells
// of both kinds — injection and beam — are jobs of the same pool, so a
// mixed sweep saturates the pool regardless of the grid mix. Cell results
// land in grid order regardless of completion order, so equal specs produce
// byte-identical SweepResults. On error or cancellation the whole pool
// drains and the first error (or ctx.Err()) is returned. Cells borrow their
// golden-run runners from a list the call owns (see newRunners); a key the
// process has built before costs the run no kernel run (see bench.Runners).
// It is RunPlan of the sweep's Whole plan, untagged.
func (s Sweep) Run(ctx context.Context) (*SweepResult, error) {
	res, err := s.RunPlan(ctx, s.Whole())
	if err != nil {
		return nil, err
	}
	res.Shard = nil
	return res, nil
}

// testHookRunners, when set by a test, sees every runner list a run creates.
var testHookRunners func(*bench.Runners)

// newRunners returns the runner list of one run: the owner of every
// golden-run runner the run's cells borrow, with the demand of each plan
// the run will execute declared — per (benchmark, BenchSeed), one Get for
// every cell whose trial range in that plan is not empty. Injection and
// beam cells of one benchmark ask under the same key and so share runners.
// The list lives as long as the call that created it, which must Close it.
func (s Sweep) newRunners(plans ...ShardPlan) *bench.Runners {
	ns := s.normalized()
	rs := bench.NewRunners()
	cells, beamCells := ns.Cells(), ns.BeamCells()
	for _, plan := range plans {
		if !plan.Injection.Empty() {
			for _, c := range cells {
				rs.Expect(c.Benchmark, ns.BenchSeed)
			}
		}
		if !plan.Beam.Empty() {
			for _, c := range beamCells {
				rs.Expect(c.Benchmark, ns.BenchSeed)
			}
		}
	}
	if testHookRunners != nil {
		testHookRunners(rs)
	}
	return rs
}

// runCells executes one plan's slice of the grid with runners borrowed
// from rs. A cell whose range is empty completes immediately with a nil
// Result.
func (s Sweep) runCells(ctx context.Context, plan ShardPlan, rs *bench.Runners) (*SweepResult, error) {
	ns := s.normalized()
	if ns.N <= 0 && ns.BeamRuns <= 0 {
		return nil, fmt.Errorf("fleet: sweep needs N > 0 or BeamRuns > 0")
	}
	for _, b := range ns.Benchmarks {
		if !bench.Has(b) {
			return nil, fmt.Errorf("fleet: unknown benchmark %q (imported?)", b)
		}
	}
	for _, b := range ns.BeamBenchmarks {
		if !bench.Has(b) {
			return nil, fmt.Errorf("fleet: unknown beam benchmark %q (imported?)", b)
		}
		if _, err := phi.ProfileFor(b); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	for _, d := range ns.BeamDevices {
		if _, err := phi.NewDevice(d); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}

	cells := ns.Cells()
	beamCells := ns.BeamCells()
	// Every cell of a kind runs the same trial range: the shard seam cuts
	// each cell's [0, N) trial space, never the grid.
	injRange, beamRange := plan.Injection, plan.Beam
	// Keep absent cell kinds nil, not empty, so SweepResults survive a
	// JSON round-trip (omitempty drops empty slices) byte-identically.
	var out []CellResult
	if len(cells) > 0 {
		out = make([]CellResult, len(cells))
	}
	var beamOut []BeamCellResult
	if len(beamCells) > 0 {
		beamOut = make([]BeamCellResult, len(beamCells))
	}

	// Observed records go through one reorder keyed by (cell position,
	// trial − range offset) over the hooked kinds' cells.
	order := trace.NewOrdered(func(deliver func()) { deliver() })
	defer order.Close()
	beamBase := 0
	if ns.ObserveInjection != nil {
		beamBase = len(cells) * injRange.N
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		done     int
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	total := len(cells) + len(beamCells)
	finish := func(err error, label string) {
		if err != nil {
			// A plain cancellation is not the cell's fault; the final
			// ctx.Err() return reports it undecorated.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				fail(fmt.Errorf("fleet: cell %s: %w", label, err))
			} else {
				cancel()
			}
			return
		}
		if ns.Progress != nil {
			// Counting under the lock keeps done monotone, so the last
			// call is always (total, total).
			mu.Lock()
			done++
			ns.Progress(done, total)
			mu.Unlock()
		}
	}

	// jobs unifies both cell kinds: index i < len(cells) is an injection
	// cell, the rest are beam cells. Each job runs single-threaded inside
	// its cell, so the pool is the only parallelism.
	runJob := func(i int) {
		if i < len(cells) {
			c := cells[i]
			if injRange.N == 0 {
				// This shard's slice of the cell is empty; the spec still
				// lands in the partial so merge validation sees the grid.
				out[i] = CellResult{CellSpec: c}
				finish(nil, "")
				return
			}
			cfg := core.CampaignConfig{
				Benchmark: c.Benchmark,
				N:         injRange.N,
				Offset:    injRange.Offset,
				Models:    []fault.Model{c.Model},
				Policy:    c.Policy,
				Seed:      c.Seed,
				BenchSeed: ns.BenchSeed,
				Workers:   1,
				Runners:   rs,
			}
			if hook := ns.ObserveInjection; hook != nil {
				base := i*injRange.N - injRange.Offset
				cfg.Observe = func(r core.InjectionRecord) { order.Put(base+r.Seq, func() { hook(r) }) }
			}
			res, err := core.RunCampaign(ctx, cfg)
			if err == nil {
				out[i] = CellResult{CellSpec: c, Result: res}
			}
			finish(err, fmt.Sprintf("%s/%s/%s", c.Benchmark, c.Model, c.Policy))
			return
		}
		j := i - len(cells)
		c := beamCells[j]
		if beamRange.N == 0 {
			beamOut[j] = BeamCellResult{BeamCellSpec: c}
			finish(nil, "")
			return
		}
		dev, err := phi.NewDevice(c.Device)
		if err == nil {
			cfg := beam.Config{
				Benchmark:  c.Benchmark,
				Runs:       beamRange.N,
				Offset:     beamRange.Offset,
				Seed:       c.Seed,
				BenchSeed:  ns.BenchSeed,
				Workers:    1,
				Device:     dev,
				DisableECC: c.DisableECC,
				Runners:    rs,
			}
			if hook := ns.ObserveBeam; hook != nil {
				base := beamBase + j*beamRange.N - beamRange.Offset
				cfg.Observe = func(r beam.Record) { order.Put(base+r.Seq, func() { hook(r) }) }
			}
			var res *beam.Result
			res, err = beam.RunContext(ctx, cfg)
			if err == nil {
				beamOut[j] = BeamCellResult{BeamCellSpec: c, Result: res}
			}
		}
		finish(err, fmt.Sprintf("beam %s/%s/ecc=%v", c.Benchmark, c.Device, !c.DisableECC))
	}

	idxCh := make(chan int)
	workers := ns.Workers
	if workers > total {
		workers = total
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				runJob(i)
			}
		}()
	}
feed:
	for i := 0; i < total; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &SweepResult{Spec: ns.unhooked(), Cells: out, BeamCells: beamOut, Shard: &plan}, nil
}

// BeamFor returns the sweep's beam results for one (device, ECC arm) pair,
// keyed by benchmark — the exact shape internal/figures renders for Figure
// 2/3 and Table 2. Each (benchmark, device, arm) triple is one cell, so no
// merging is needed.
func (r *SweepResult) BeamFor(device string, disableECC bool) map[string]*beam.Result {
	out := map[string]*beam.Result{}
	for _, c := range r.BeamCells {
		if c.Result == nil || c.Device != device || c.DisableECC != disableECC {
			continue
		}
		out[c.Benchmark] = c.Result
	}
	return out
}

// BeamArms lists the distinct (device, ECC arm) pairs present in the
// sweep's beam cells, in cell enumeration order — the iteration key for
// rendering every arm of an ablation sweep.
func (r *SweepResult) BeamArms() []BeamArm {
	var arms []BeamArm
	seen := map[BeamArm]bool{}
	for _, c := range r.BeamCells {
		a := BeamArm{Device: c.Device, DisableECC: c.DisableECC}
		if !seen[a] {
			seen[a] = true
			arms = append(arms, a)
		}
	}
	return arms
}

// BeamArm identifies one rendered beam ablation arm.
type BeamArm struct {
	Device     string
	DisableECC bool
}

// MergedFor folds the cells run under policy back into one CampaignResult
// per benchmark, summed across fault models: the shape internal/figures
// renders, so Figures 4-6 and Table 1 work directly on a sweep, one
// ablation arm at a time. Each is a Clone of the benchmark's first cell
// plus the Add of the rest.
func (r *SweepResult) MergedFor(policy state.Policy) map[string]*core.CampaignResult {
	out := map[string]*core.CampaignResult{}
	for _, c := range r.Cells {
		if c.Result == nil || c.Policy != policy {
			continue
		}
		if m := out[c.Benchmark]; m != nil {
			m.Add(c.Result)
		} else {
			out[c.Benchmark] = c.Result.Clone()
		}
	}
	return out
}
