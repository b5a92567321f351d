// Package engine is the generic streaming experiment engine both of the
// paper's campaign classes run on: CAROL-FI fault injection (internal/core)
// and accelerated neutron-beam runs (internal/beam). It owns the mechanics
// every Monte-Carlo campaign shares — a worker pool with strided trial
// assignment, per-worker shard aggregates the caller sums after the pool
// drains (a campaign result is its own shard: core folds each record with
// CampaignResult.Fold and sums the shards with CampaignResult.Add),
// per-trial RNG streams derived from one seed, context cancellation with
// internally consistent partial tallies, a serialised Progress hook, and an
// optional Observe hook handed every record by the worker that ran it —
// parameterised over the experiment function and the record/aggregate
// types. A consumer that wants several listeners (a JSONL trace and the
// resident reliability monitor, say) passes one closure that calls each.
//
// Determinism contract: global trial i always runs with the RNG stream
// stats.NewRNG(stats.Mix64(Seed, i)) on some worker, and shard merging is
// order-independent, so a completed campaign is bit-identical for any
// worker count — and, via Config.Offset, K runs that partition the global
// index space [0, total) reproduce one monolithic run exactly. Memory is
// O(Workers): records are folded, or kept by an Observe hook, never by the
// engine.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"phirel/internal/stats"
)

// Experiment runs one trial. The index and the derived RNG stream are the
// trial's whole identity: an experiment must not consult shared mutable
// state, so trial i yields the same record on every worker.
type Experiment[R any] func(i int, rng *stats.RNG) R

// Config parameterises a streaming campaign over record type R and
// per-worker aggregate type A (typically a pointer to a shard struct).
type Config[R, A any] struct {
	// N is the number of trials this run executes.
	N int
	// Offset places the run in a global trial index space: the run covers
	// trials [Offset, Offset+N). Trial i (global) always derives its RNG
	// stream from stats.Mix64(Seed, i) regardless of which shard run
	// executes it, so K runs partitioning [0, total) reproduce one
	// monolithic run bit for bit. Experiment and Observe see global
	// indices; Progress counts stay local to this run (done of N).
	Offset int
	// Seed determinises the campaign: global trial i uses
	// stats.Mix64(Seed, i).
	Seed uint64
	// Workers sizes the pool (default 4, clamped to N). Completed results
	// are independent of Workers.
	Workers int
	// Progress, when non-nil, is invoked with (done, total) roughly every
	// 1% of N. Calls are serialised and done is monotone; a completed
	// campaign always delivers a final (N, N) call.
	Progress func(done, total int)
	// Observe, when non-nil, is called with every record by the worker
	// that ran the trial, after the trial and before Fold, so a trial that
	// was not observed is never tallied. Calls from different workers may
	// overlap and arrive in any trial order.
	Observe func(R)
	// NewWorker builds one worker's private experiment state (benchmark
	// instance, injector, ...). It is called once per worker, from that
	// worker's goroutine; any error aborts the campaign.
	NewWorker func(w int) (Experiment[R], error)
	// NewShard builds one worker's empty aggregate.
	NewShard func(w int) A
	// Fold tallies one record into a worker's aggregate. It is only ever
	// called from that worker's goroutine, so it needs no locking.
	Fold func(shard A, rec R)
}

// Result is the raw engine outcome: the per-worker aggregates (merge is the
// caller's, since only the caller knows A's semantics) and the count of
// trials that completed.
type Result[R, A any] struct {
	// Shards holds one aggregate per worker. Folding is strided (worker w
	// gets trials w, w+Workers, ...), so any order-independent merge of
	// the shards reconstructs the campaign total.
	Shards []A
	// Done is the number of trials that completed.
	Done int
}

// Run executes cfg.N trials under ctx. When ctx is cancelled the engine
// stops scheduling new trials and returns the partial Result alongside
// ctx.Err(); every trial counted in a shard fully completed, so partial
// aggregates are internally consistent. A NewWorker error aborts the whole
// campaign and returns a nil Result.
func Run[R, A any](ctx context.Context, cfg Config[R, A]) (*Result[R, A], error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("engine: campaign needs N > 0")
	}
	if cfg.Offset < 0 {
		return nil, fmt.Errorf("engine: trial offset %d is negative", cfg.Offset)
	}
	if cfg.NewWorker == nil || cfg.NewShard == nil || cfg.Fold == nil {
		return nil, fmt.Errorf("engine: NewWorker, NewShard and Fold are required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > cfg.N {
		workers = cfg.N
	}

	// Progress is reported about every 1% of the campaign, serialised so
	// the callback never runs concurrently with itself.
	stride := int64(cfg.N / 100)
	if stride < 1 {
		stride = 1
	}
	var (
		done         atomic.Int64
		progressMu   sync.Mutex
		lastReported int64
	)
	// report delivers the exact triggering count (so CLI filters like
	// done%stride==0 see precise stride multiples), dropping the rare
	// straggler that lost the race to a larger crossing so the delivered
	// sequence stays monotonic.
	report := func(n int64) {
		progressMu.Lock()
		if n > lastReported {
			lastReported = n
			cfg.Progress(int(n), cfg.N)
		}
		progressMu.Unlock()
	}

	shards := make([]A, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shards[w] = cfg.NewShard(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run, err := cfg.NewWorker(w)
			if err != nil {
				errs[w] = err
				return
			}
			sh := shards[w]
			// One reusable generator per worker: Reseed restores the exact
			// NewRNG(seed) state, so trial streams stay bit-identical while
			// the per-trial heap allocation disappears.
			var rng stats.RNG
			for li := w; li < cfg.N; li += workers {
				select {
				case <-ctx.Done():
					return
				default:
				}
				// The global index is the trial's identity — it keys the
				// RNG stream, so the shard boundary never shifts a seed.
				i := cfg.Offset + li
				rng.Reseed(stats.Mix64(cfg.Seed, uint64(i)))
				rec := run(i, &rng)
				if cfg.Observe != nil {
					cfg.Observe(rec)
				}
				cfg.Fold(sh, rec)
				if n := done.Add(1); cfg.Progress != nil && (n%stride == 0 || n == int64(cfg.N)) {
					report(n)
				}
				// A trial never blocks, so without this a worker holds its
				// P until the runtime preempts it and the collector's mark
				// worker waits out whole cells for a time slice: mark phases
				// stretch from under 1 ms to 10-20 ms and what is allocated
				// meanwhile stays live, so peak heap differs run to run.
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Completed campaigns always end on an exact (N, N) Progress call, even
	// if the in-flight reporting raced: report dedupes, so the delivered
	// sequence stays monotone and the final call is never doubled.
	if cfg.Progress != nil && int(done.Load()) == cfg.N {
		report(int64(cfg.N))
	}

	out := &Result[R, A]{Shards: shards, Done: int(done.Load())}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}
