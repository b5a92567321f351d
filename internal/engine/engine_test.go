package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"phirel/internal/stats"
)

// trial is the toy record the engine tests run: index plus one RNG draw, so
// determinism failures are visible as value mismatches.
type trial struct {
	I int
	V uint64
}

// tally is the toy mergeable aggregate.
type tally struct {
	n   int
	sum uint64
}

func config(n, workers int) Config[trial, *tally] {
	return Config[trial, *tally]{
		N:       n,
		Seed:    99,
		Workers: workers,
		NewWorker: func(w int) (Experiment[trial], error) {
			return func(i int, rng *stats.RNG) trial {
				return trial{I: i, V: rng.Uint64()}
			}, nil
		},
		NewShard: func(int) *tally { return &tally{} },
		Fold:     func(sh *tally, t trial) { sh.n++; sh.sum += t.V },
	}
}

// keep sets cfg.Observe to store every record at its local index and
// returns the slice. Workers write disjoint elements, so it needs no lock.
func keep(cfg *Config[trial, *tally]) []trial {
	recs := make([]trial, cfg.N)
	off := cfg.Offset
	cfg.Observe = func(t trial) { recs[t.I-off] = t }
	return recs
}

func merged(res *Result[trial, *tally]) tally {
	var out tally
	for _, sh := range res.Shards {
		out.n += sh.n
		out.sum += sh.sum
	}
	return out
}

func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	var base *Result[trial, *tally]
	var baseRecs []trial
	for _, workers := range []int{1, 3, 8} {
		cfg := config(100, workers)
		recs := keep(&cfg)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != 100 {
			t.Fatalf("workers=%d: done %d", workers, res.Done)
		}
		if base == nil {
			base, baseRecs = res, recs
			continue
		}
		if !reflect.DeepEqual(baseRecs, recs) {
			t.Fatalf("workers=%d: records differ from workers=1", workers)
		}
		if merged(base) != merged(res) {
			t.Fatalf("workers=%d: merged tally differs", workers)
		}
	}
}

func TestEngineSeedsAreMix64(t *testing.T) {
	cfg := config(10, 2)
	recs := keep(&cfg)
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		want := stats.NewRNG(stats.Mix64(99, uint64(i))).Uint64()
		if rec.I != i || rec.V != want {
			t.Fatalf("trial %d: got (%d,%d), want (%d,%d)", i, rec.I, rec.V, i, want)
		}
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := config(5000, 4)
	cfg.Progress = func(done, total int) {
		if done >= 50 {
			cancel()
		}
	}
	res, err := Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if m := merged(res); m.n != res.Done {
		t.Fatalf("partial accounting: tally %d, done %d", m.n, res.Done)
	}
	if res.Done == 0 || res.Done >= 5000 {
		t.Fatalf("done = %d, want a strict partial", res.Done)
	}
}

// TestEngineObserveOncePerFoldedTrial pins the Observe contract: every
// trial is observed exactly once, by its worker, before it is folded, so
// a cancelled campaign's partial Done equals the number of records its
// observer saw.
func TestEngineObserveOncePerFoldedTrial(t *testing.T) {
	for _, cancelAt := range []int{0, 50} {
		const n = 5000
		ctx, cancel := context.WithCancel(context.Background())
		seen := make([]atomic.Int32, n)
		var observed atomic.Int64
		cfg := config(n, 4)
		cfg.Observe = func(tr trial) { seen[tr.I].Add(1); observed.Add(1) }
		fold := cfg.Fold
		cfg.Fold = func(sh *tally, tr trial) {
			if c := seen[tr.I].Load(); c != 1 {
				t.Errorf("trial %d folded after %d observations, want 1", tr.I, c)
			}
			fold(sh, tr)
		}
		cfg.Progress = func(done, total int) {
			if cancelAt > 0 && done >= cancelAt {
				cancel()
			}
		}
		res, err := Run(ctx, cfg)
		cancel()
		if (err != nil) != (cancelAt > 0) || cancelAt > 0 && res.Done == n {
			t.Fatalf("cancelAt=%d: err %v, done %d", cancelAt, err, res.Done)
		}
		if int(observed.Load()) != res.Done || merged(res).n != res.Done {
			t.Fatalf("cancelAt=%d: observed %d, folded %d, done %d", cancelAt, observed.Load(), merged(res).n, res.Done)
		}
	}
}

func TestEngineWorkerError(t *testing.T) {
	cfg := config(40, 4)
	cfg.NewWorker = func(w int) (Experiment[trial], error) {
		if w == 2 {
			return nil, fmt.Errorf("boom")
		}
		return func(i int, rng *stats.RNG) trial { return trial{I: i} }, nil
	}
	res, err := Run(context.Background(), cfg)
	if err == nil || res != nil {
		t.Fatalf("worker error not propagated: res=%v err=%v", res, err)
	}
}

func TestEngineProgressMonotone(t *testing.T) {
	var last atomic.Int64
	cfg := config(300, 4)
	cfg.Progress = func(done, total int) {
		if total != 300 {
			t.Errorf("total = %d", total)
		}
		if prev := last.Swap(int64(done)); int64(done) < prev {
			t.Errorf("progress went backwards: %d after %d", done, prev)
		}
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if last.Load() != 300 {
		t.Fatalf("final progress %d, want 300", last.Load())
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := config(10, 1)
	cfg.Fold = nil
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("accepted nil Fold")
	}
}

// TestEngineOffsetGlobalIndices pins the sharding contract: a run covering
// [Offset, Offset+N) hands the experiment global indices and derives each
// trial's RNG stream from the global index, so the shard boundary never
// shifts a seed.
func TestEngineOffsetGlobalIndices(t *testing.T) {
	cfg := config(10, 3)
	cfg.Offset = 40
	recs := keep(&cfg)
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	for li, rec := range recs {
		g := 40 + li
		want := stats.NewRNG(stats.Mix64(99, uint64(g))).Uint64()
		if rec.I != g || rec.V != want {
			t.Fatalf("trial %d: got (%d,%#x), want (%d,%#x)", li, rec.I, rec.V, g, want)
		}
	}
}

// TestEngineShardPartitionMatchesMonolithic is the distribution seam's core
// property: K offset runs partitioning [0, N) reproduce the monolithic run
// record for record and tally for tally.
func TestEngineShardPartitionMatchesMonolithic(t *testing.T) {
	whole := config(101, 4)
	monoRecs := keep(&whole)
	mono, err := Run(context.Background(), whole)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trial
	var sum tally
	for _, r := range []struct{ off, n int }{{0, 33}, {33, 40}, {73, 28}} {
		cfg := config(r.n, 3)
		cfg.Offset = r.off
		part := keep(&cfg)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, part...)
		m := merged(res)
		sum.n += m.n
		sum.sum += m.sum
	}
	if !reflect.DeepEqual(monoRecs, recs) {
		t.Fatal("sharded records differ from monolithic run")
	}
	if sum != merged(mono) {
		t.Fatalf("sharded tally %+v differs from monolithic %+v", sum, merged(mono))
	}
}

func TestEngineNegativeOffsetRejected(t *testing.T) {
	cfg := config(5, 1)
	cfg.Offset = -1
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("accepted negative offset")
	}
}

// TestEngineProgressSmallN is the progress-contract regression test: for
// small campaigns (N < 100, where the reporting stride collapses to 1) the
// delivered sequence must be strictly monotone, stay within [1, N], and end
// with an exact final (N, N) call — for every worker count, including
// workers > N.
func TestEngineProgressSmallN(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 13, 60, 99} {
		for _, workers := range []int{1, 4, 128} {
			var (
				mu    sync.Mutex
				calls []int
			)
			cfg := config(n, workers)
			cfg.Progress = func(done, total int) {
				if total != n {
					t.Errorf("N=%d workers=%d: total %d", n, workers, total)
				}
				mu.Lock()
				calls = append(calls, done)
				mu.Unlock()
			}
			if _, err := Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if len(calls) == 0 || calls[len(calls)-1] != n {
				t.Fatalf("N=%d workers=%d: final progress call %v, want %d", n, workers, calls, n)
			}
			for i := 1; i < len(calls); i++ {
				if calls[i] <= calls[i-1] {
					t.Fatalf("N=%d workers=%d: progress not strictly monotone: %v", n, workers, calls)
				}
			}
			if calls[0] < 1 {
				t.Fatalf("N=%d workers=%d: progress below 1: %v", n, workers, calls)
			}
		}
	}
}
