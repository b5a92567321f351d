package core

import (
	"context"
	"fmt"

	"phirel/internal/bench"
	"phirel/internal/engine"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// OutcomeCounts tallies run classifications.
type OutcomeCounts struct {
	Masked, SDC, DUECrash, DUEHang, DUEMCA int
}

// Add folds one outcome into the tally.
func (c *OutcomeCounts) Add(o bench.Outcome) {
	switch o {
	case bench.Masked:
		c.Masked++
	case bench.SDC:
		c.SDC++
	case bench.DUECrash:
		c.DUECrash++
	case bench.DUEHang:
		c.DUEHang++
	case bench.DUEMCA:
		c.DUEMCA++
	}
}

// Merge folds another tally into c.
func (c *OutcomeCounts) Merge(o OutcomeCounts) {
	c.Masked += o.Masked
	c.SDC += o.SDC
	c.DUECrash += o.DUECrash
	c.DUEHang += o.DUEHang
	c.DUEMCA += o.DUEMCA
}

// DUE returns all detected-unrecoverable outcomes.
func (c OutcomeCounts) DUE() int { return c.DUECrash + c.DUEHang + c.DUEMCA }

// Total returns the tally size.
func (c OutcomeCounts) Total() int { return c.Masked + c.SDC + c.DUE() }

// SDCPVF returns the SDC program vulnerability factor with its CI.
func (c OutcomeCounts) SDCPVF() stats.Proportion { return stats.NewProportion(c.SDC, c.Total()) }

// DUEPVF returns the DUE program vulnerability factor with its CI.
func (c OutcomeCounts) DUEPVF() stats.Proportion { return stats.NewProportion(c.DUE(), c.Total()) }

// MaskedShare returns the masked fraction with its CI.
func (c OutcomeCounts) MaskedShare() stats.Proportion {
	return stats.NewProportion(c.Masked, c.Total())
}

// CampaignConfig parameterises a fault-injection campaign.
type CampaignConfig struct {
	// Benchmark is the registered workload name.
	Benchmark string
	// N is the number of injections this run executes (the paper uses
	// >=10,000 per benchmark for ±1.96% error bars at 95% confidence).
	N int
	// Offset places the run in a global injection index space: the run
	// covers injections [Offset, Offset+N). Global injection i always uses
	// the RNG stream derived from (Seed, i) and the fault model
	// Models[i%len(Models)], so K shard runs partitioning the global space
	// merge (via CampaignResult.Merge) bit-identically to one monolithic
	// campaign.
	Offset int
	// Models to cycle through (defaults to all four).
	Models []fault.Model
	// Policy selects victims (the zero value is ByFrameThenVariable, the
	// literal CAROL-FI procedure).
	Policy state.Policy
	// Seed determinises the whole campaign.
	Seed uint64
	// BenchSeed determinises workload inputs.
	BenchSeed uint64
	// Workers is the number of parallel injectors (each gets its own
	// benchmark instance). Results are independent of Workers.
	Workers int
	// Progress, when non-nil, is invoked with (done, total) as injections
	// complete — roughly every 1% of total and once at the end. Calls are
	// serialised; done is monotonic within a call sequence.
	Progress func(done, total int)
	// Observe, when non-nil, is handed every InjectionRecord by the worker
	// that ran it, before the record is tallied (engine.Config.Observe).
	// Calls from different workers may overlap and arrive in any Seq
	// order.
	Observe func(InjectionRecord)
	// Runners, when non-nil, is the run-scoped free list the campaign
	// borrows its golden-run runners from and returns them to, so the cells
	// of one sweep run share golden runs. Nil builds a runner per worker
	// and drops it at the end. Execution detail: results do not depend on
	// it.
	Runners *bench.Runners
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Benchmark string
	// N is the number of injections that completed — the configured N
	// unless the campaign was cancelled.
	N int
	// Offset is the global index of the campaign's first injection — zero
	// for a monolithic run, the range start for a shard run.
	Offset  int `json:",omitempty"`
	Windows int
	Policy  state.Policy

	Outcomes OutcomeCounts
	ByModel  map[fault.Model]OutcomeCounts
	ByWindow []OutcomeCounts
	ByRegion map[state.Region]OutcomeCounts

	// FiredShare is the fraction of injections whose corruption actually
	// materialised (armed corruptions on dead variables never fire).
	FiredShare stats.Proportion
}

// RunCampaign executes cfg.N injection experiments. Every experiment i uses
// an RNG stream derived from (cfg.Seed, i), so results are bit-identical for
// any worker count. It is RunCampaignContext without cancellation.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return RunCampaignContext(context.Background(), cfg)
}

// RunCampaignContext executes cfg.N injection experiments under ctx on the
// shared streaming engine (internal/engine). When ctx is cancelled the
// engine stops scheduling new injections and returns the partial result
// alongside ctx.Err(); the partial tallies are internally consistent (every
// partition sums to the number of injections that completed). Determinism
// is keyed by injection index: experiment i always uses the RNG stream
// derived from (cfg.Seed, i) and the fault model cfg.Models[i%len], so
// completed results are bit-identical for any worker count. Each worker
// injects on a golden-run runner borrowed from cfg.Runners (built fresh
// when that is nil); all of them are back in the list when the call
// returns, on every path.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: campaign needs N > 0")
	}
	models := cfg.Models
	if len(models) == 0 {
		models = fault.Models
	}

	// Every runner comes from cfg.Runners and goes back on every exit. The
	// first is borrowed here, before the engine starts, because the shards
	// need the window count and a bad name should fail before a pool spins
	// up; worker 0 runs on it.
	loan := cfg.Runners.Loan(cfg.Benchmark, cfg.BenchSeed)
	defer loan.Return()
	first, err := loan.Get()
	if err != nil {
		return nil, err
	}
	windows := first.B.Windows()

	eres, err := engine.Run(ctx, engine.Config[InjectionRecord, *CampaignResult]{
		N:        cfg.N,
		Offset:   cfg.Offset,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
		Progress: cfg.Progress,
		Observe:  cfg.Observe,
		NewWorker: func(w int) (engine.Experiment[InjectionRecord], error) {
			r := first
			if w != 0 {
				var werr error
				if r, werr = loan.Get(); werr != nil {
					return nil, werr
				}
			}
			inj := newInjector(r, cfg.Policy)
			return func(i int, rng *stats.RNG) InjectionRecord {
				rec := inj.InjectOne(models[i%len(models)], rng)
				rec.Seq = i
				return rec
			}, nil
		},
		NewShard: func(int) *CampaignResult {
			return NewCampaignResult(cfg.Benchmark, cfg.Policy, cfg.Offset, windows)
		},
		Fold: (*CampaignResult).Fold,
	})
	if eres == nil {
		return nil, err
	}
	// N and FiredShare count the records the shards folded, so a cancelled
	// campaign's partial result never claims injections that did not run.
	res := eres.Shards[0]
	for _, sh := range eres.Shards[1:] {
		res.Add(sh)
	}
	return res, err
}

// DeriveSeed exposes the engine's per-index seed mixing so higher layers
// (the fleet orchestrator) can derive per-campaign seeds from one master
// seed with the same avalanche properties as the per-injection streams. It
// is a thin alias of stats.Mix64, the mixer the engine itself uses, so
// sweep seeds published before the engines were unified remain stable.
func DeriveSeed(seed, idx uint64) uint64 { return stats.Mix64(seed, idx) }
