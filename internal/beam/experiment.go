package beam

import (
	"context"
	"fmt"
	"sort"

	"phirel/internal/analysis"
	"phirel/internal/bench"
	"phirel/internal/core"
	"phirel/internal/engine"
	"phirel/internal/phi"
	"phirel/internal/stats"
)

// Config parameterises one accelerated beam campaign.
type Config struct {
	// Benchmark is the registered workload name.
	Benchmark string
	// Runs is the number of accelerated runs this campaign executes; each
	// receives exactly one raw fault (the paper tuned flux so multi-fault
	// runs are negligible).
	Runs int
	// Offset places the campaign in a global run index space: the campaign
	// covers runs [Offset, Offset+Runs). Global run i always uses the RNG
	// stream derived from (Seed ^ beamSeedSalt, i), so K shard campaigns
	// partitioning the global space merge (via Result.Merge) bit-identically
	// to one monolithic campaign.
	Offset int
	// Seed determinises the campaign; BenchSeed the workload inputs.
	Seed, BenchSeed uint64
	// Workers parallelises runs (results independent of worker count).
	Workers int
	// Device overrides the default KNC 3120A model.
	Device *phi.Device
	// DisableECC removes SECDED from the SRAM arrays (ablation A2: every
	// SRAM upset reaches architectural state).
	DisableECC bool
	// KeepRecords retains per-run records in Result.Records, ordered by
	// Seq. This is the only mode that costs O(Runs) memory; without it the
	// engine streams outcomes into per-worker shard tallies and campaign
	// memory stays O(Workers).
	KeepRecords bool
	// Progress, when non-nil, is invoked with (done, total) as runs
	// complete — roughly every 1% of total and once at the end. Calls are
	// serialised.
	Progress func(done, total int)
	// Stream, when non-nil, receives every Record as it is produced.
	// Delivery order across workers is nondeterministic (records carry Seq
	// for reordering). The engine closes the channel when the campaign
	// returns. Works independently of KeepRecords.
	Stream chan<- Record
	// Runners, when non-nil, is the run-scoped free list the campaign
	// borrows its golden-run runners from — the same list, and the same
	// runners, the injection cells of the sweep run use. Nil builds a
	// runner per worker and drops it at the end. Execution detail: results
	// do not depend on it.
	Runners *bench.Runners
}

// Record is one accelerated run's log entry (the public beam log format).
type Record struct {
	Seq       int     `json:"seq"`
	Benchmark string  `json:"benchmark"`
	Resource  string  `json:"resource"`
	HWResult  string  `json:"hwResult"`
	Effect    string  `json:"effect,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	Tick      int     `json:"tick"`
	Outcome   string  `json:"outcome"`
	Pattern   string  `json:"pattern"`
	MaxRelErr float64 `json:"maxRelErr"`
	Corrupted int     `json:"corruptedElems"`
}

// Result aggregates a beam campaign into the paper's Figure 2/3 quantities.
type Result struct {
	Benchmark string
	// Runs is the number of accelerated runs that completed — the
	// configured Runs unless the campaign was cancelled.
	Runs int
	// Offset is the global index of the campaign's first run — zero for a
	// monolithic campaign, the range start for a shard campaign.
	Offset int `json:",omitempty"`
	Device string
	// ECCDisabled records the A2 ablation arm the campaign ran under.
	ECCDisabled bool `json:",omitempty"`

	// Outcomes tallies all accelerated runs with the same shape the
	// injection campaigns use, so the two experiment classes share one
	// outcome algebra (PVFs, merge, figures).
	Outcomes core.OutcomeCounts
	// CorrectedByECC counts raw faults absorbed by SECDED.
	CorrectedByECC int

	// SDCByPattern splits the SDC count by spatial pattern.
	SDCByPattern map[analysis.Pattern]int

	// RelErrs holds the worst relative error of every SDC run in Seq order
	// (Figure 3), so a completed Result is bit-identical for any worker
	// count.
	RelErrs []float64

	// RawFaultRate is the calibrated raw upset rate (faults/hour at
	// natural flux) that converts probabilities into FIT.
	RawFaultRate float64

	Records []Record `json:",omitempty"`
}

// DUE returns all detected-unrecoverable counts.
func (r *Result) DUE() int { return r.Outcomes.DUE() }

// FIT converts an outcome count into a FIT estimate with binomial CI. The
// math is analysis.RateFITEstimate — shared with the resident monitor, so
// a monitor snapshot over this campaign's stream reproduces these fits
// bit for bit.
func (r *Result) FIT(count int) analysis.FITEstimate {
	return analysis.RateFITEstimate(r.RawFaultRate, count, r.Runs)
}

// SDCFIT returns the total SDC FIT estimate.
func (r *Result) SDCFIT() analysis.FITEstimate { return r.FIT(r.Outcomes.SDC) }

// DUEFIT returns the total DUE FIT estimate.
func (r *Result) DUEFIT() analysis.FITEstimate { return r.FIT(r.DUE()) }

// PatternFIT returns the FIT attributable to one SDC spatial pattern.
func (r *Result) PatternFIT(p analysis.Pattern) analysis.FITEstimate {
	return r.FIT(r.SDCByPattern[p])
}

// ToleranceCurve returns percentage FIT reduction at each tolerance
// (Figure 3 series for this benchmark).
func (r *Result) ToleranceCurve(tolerances []float64) []float64 {
	return analysis.ToleranceCurve(r.RelErrs, tolerances)
}

// SingleElementShare returns the fraction of SDC runs whose corruption was
// confined to one output element — the paper's "less than 10% of
// neutron-corrupted executions are affected by only a single erroneous
// element" (§2.1).
func (r *Result) SingleElementShare() stats.Proportion {
	return stats.NewProportion(r.SDCByPattern[analysis.PatternSingle], r.Outcomes.SDC)
}

// OutcomeOf parses the record's outcome back into the harness enum.
func (r Record) OutcomeOf() bench.Outcome {
	for _, o := range []bench.Outcome{bench.Masked, bench.SDC, bench.DUECrash, bench.DUEHang, bench.DUEMCA} {
		if o.String() == r.Outcome {
			return o
		}
	}
	return bench.Masked
}

// PatternOf parses the record's spatial pattern.
func (r Record) PatternOf() analysis.Pattern {
	for _, p := range analysis.Patterns {
		if p.String() == r.Pattern {
			return p
		}
	}
	return analysis.PatternNone
}

// shard is one worker's private aggregation state; the engine merges the
// shards after its pool drains, so no locks and O(workers) campaign memory.
type shard struct {
	outcomes  core.OutcomeCounts
	corrected int
	byPattern map[analysis.Pattern]int
	// relErrs carries Seq so the merged Result's Figure 3 series has one
	// deterministic order regardless of worker count.
	relErrs []seqErr
}

type seqErr struct {
	seq int
	v   float64
}

// fold tallies one record into the shard.
func (s *shard) fold(rec Record) {
	o := rec.OutcomeOf()
	s.outcomes.Add(o)
	switch o {
	case bench.Masked:
		if rec.HWResult == phi.Corrected.String() {
			s.corrected++
		}
	case bench.SDC:
		s.byPattern[rec.PatternOf()]++
		s.relErrs = append(s.relErrs, seqErr{rec.Seq, rec.MaxRelErr})
	}
}

// Run executes the accelerated campaign. It is RunContext without
// cancellation.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the accelerated campaign under ctx on the shared
// streaming engine (internal/engine) — the same machinery the CAROL-FI
// injection campaigns use. When ctx is cancelled the engine stops
// scheduling new runs and returns the partial result alongside ctx.Err();
// partial tallies are internally consistent. Run i always uses the RNG
// stream derived from (cfg.Seed ^ beamSeedSalt, i), so completed results
// are bit-identical for any worker count and the stream family matches the
// pre-unification beam mixer. Each worker runs on a golden-run runner
// borrowed from cfg.Runners (built fresh when that is nil) and returned on
// every path out.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	fail := func(err error) (*Result, error) {
		if cfg.Stream != nil {
			close(cfg.Stream)
		}
		return nil, err
	}
	if cfg.Runs <= 0 {
		return fail(fmt.Errorf("beam: campaign needs Runs > 0"))
	}
	dev := cfg.Device
	if dev == nil {
		dev = phi.NewKNC3120A()
	}
	if cfg.DisableECC {
		noECC := *dev
		noECC.Resources = append([]phi.Resource(nil), dev.Resources...)
		for i := range noECC.Resources {
			noECC.Resources[i].ECC = phi.NoECC
		}
		dev = &noECC
	}
	profile, err := phi.ProfileFor(cfg.Benchmark)
	if err != nil {
		return fail(err)
	}

	// Every worker's runner comes from cfg.Runners and goes back on every
	// exit, including a NewWorker error and cancellation.
	loan := cfg.Runners.Loan(cfg.Benchmark, cfg.BenchSeed)
	defer loan.Return()
	eres, err := engine.Run(ctx, engine.Config[Record, *shard]{
		N:           cfg.Runs,
		Offset:      cfg.Offset,
		Seed:        cfg.Seed ^ beamSeedSalt,
		Workers:     cfg.Workers,
		KeepRecords: cfg.KeepRecords,
		Progress:    cfg.Progress,
		Stream:      cfg.Stream,
		NewWorker: func(int) (engine.Experiment[Record], error) {
			runner, werr := loan.Get()
			if werr != nil {
				return nil, werr
			}
			return func(i int, rng *stats.RNG) Record {
				return oneRun(i, cfg.Benchmark, runner, dev, profile, rng)
			}, nil
		},
		NewShard: func(int) *shard { return &shard{byPattern: map[analysis.Pattern]int{}} },
		Fold:     func(sh *shard, rec Record) { sh.fold(rec) },
	})
	if eres == nil {
		return nil, err
	}

	res := &Result{
		Benchmark:    cfg.Benchmark,
		Offset:       cfg.Offset,
		Device:       dev.Name,
		ECCDisabled:  cfg.DisableECC,
		SDCByPattern: map[analysis.Pattern]int{},
		RawFaultRate: dev.RawFaultRate(profile, analysis.NaturalFlux),
		Records:      eres.Records,
	}
	var errs []seqErr
	for _, sh := range eres.Shards {
		res.Outcomes.Merge(sh.outcomes)
		res.CorrectedByECC += sh.corrected
		for p, n := range sh.byPattern {
			res.SDCByPattern[p] += n
		}
		errs = append(errs, sh.relErrs...)
	}
	// Each shard's relErrs are already Seq-sorted (strided assignment);
	// one global sort folds the k streams into the canonical order.
	sort.Slice(errs, func(i, j int) bool { return errs[i].seq < errs[j].seq })
	if len(errs) > 0 {
		res.RelErrs = make([]float64, len(errs))
		for i, e := range errs {
			res.RelErrs[i] = e.v
		}
	}
	res.Runs = res.Outcomes.Total()
	return res, err
}

// oneRun executes one accelerated run: sample a raw fault, filter it
// through protection, and — only when it reaches architecture — actually
// execute the workload with the corruption applied at a uniform tick.
func oneRun(seq int, name string, runner *bench.Runner,
	dev *phi.Device, profile phi.Profile, rng *stats.RNG) Record {

	rec := Record{Seq: seq, Benchmark: name}
	f := dev.SampleFault(rng, profile)
	rec.Resource = f.Resource.Name
	rec.HWResult = f.Result.String()
	switch f.Result {
	case phi.Corrected:
		rec.Outcome = bench.Masked.String()
		rec.Pattern = analysis.PatternNone.String()
		return rec
	case phi.DetectedMCA:
		rec.Outcome = bench.DUEMCA.String()
		rec.Pattern = analysis.PatternNone.String()
		return rec
	}

	effect := effectFor(f.Resource.Class, rng)
	rec.Effect = effect.String()
	tick := rng.Intn(runner.TotalTicks)
	rec.Tick = tick
	res := runner.RunInjected(tick, func() {
		rec.Detail = applyEffect(runner.B, dev, effect, rng)
	})
	switch res.Status {
	case bench.Crashed:
		rec.Outcome = bench.DUECrash.String()
		rec.Pattern = analysis.PatternNone.String()
	case bench.Hung:
		rec.Outcome = bench.DUEHang.String()
		rec.Pattern = analysis.PatternNone.String()
	default:
		ms := analysis.Compare(runner.Golden, res.Output)
		if len(ms) == 0 {
			rec.Outcome = bench.Masked.String()
			rec.Pattern = analysis.PatternNone.String()
		} else {
			rec.Outcome = bench.SDC.String()
			rec.Pattern = analysis.Classify(ms, runner.Golden.Shape).String()
			rec.MaxRelErr = analysis.FiniteRelErr(analysis.MaxRelErr(ms))
			rec.Corrupted = len(ms)
		}
	}
	return rec
}

// beamSeedSalt keeps the beam campaign's per-run RNG streams a distinct
// family from the CAROL-FI injection mixer: the engine derives run i's seed
// as stats.Mix64(Seed ^ beamSeedSalt, i), which reproduces the
// pre-unification mixBeam stream bit for bit.
const beamSeedSalt = 0xbeadcafef00dd00d
