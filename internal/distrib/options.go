package distrib

import (
	"errors"
	"fmt"
	"time"
)

// Options tunes a fan-out: every knob a one-shot Run or a resident
// Scheduler needs. It is the one validated config both surfaces share —
// cmd/phi-fleet's flag defaults come from Defaults and both Run and
// NewScheduler reject what Validate rejects, so the CLI and the service
// cannot drift apart on what a legal fan-out is.
type Options struct {
	// Shards is the fan-out width K (required, >= 1): how many shard
	// workers every submitted sweep is split across.
	Shards int
	// Launcher starts shard workers (required): ExecLauncher for
	// subprocesses, local or through an ssh or kubectl transport,
	// LauncherFunc for in-process workers.
	Launcher Launcher
	// Dir is the working directory (required; the caller owns creation and
	// cleanup). Run lays the shared spec file and shard partials directly
	// in it; a Scheduler gives every submitted job its own subdirectory.
	Dir string
	// Timeout bounds every attempt of every shard; 0 means no limit.
	Timeout time.Duration
	// Retries is how many times a crashed, timed-out or corrupt-output
	// shard is relaunched beyond its first attempt.
	Retries int
	// Backoff is the delay before a shard's first retry, doubling per
	// retry and capped at 1m. Defaults() and the CLIs' -backoff flag set
	// 1s; a zero Backoff (an Options built without Defaults) means 500ms.
	Backoff time.Duration
	// MaxConcurrent caps shards in flight at once (0 = no cap). Under a
	// Scheduler the cap is one shared budget across every job: slots are
	// granted strictly in submission order, so an earlier job's shards
	// never wait behind a later job's.
	MaxConcurrent int
	// CheckpointEvery, when > 0, makes every shard worker checkpoint its
	// partial every CheckpointEvery trials (phi-bench -checkpoint-out next
	// to the shard's partial path), and makes the supervisor bank a
	// relaunched shard's newest valid checkpoint and launch only the rest
	// of its plan instead of recomputing from trial zero. 0 disables
	// checkpointing.
	CheckpointEvery int
	// StealInterval, when > 0, arms the straggler watch: every
	// StealInterval the scheduler compares the shards' progress rates in
	// the job's worker table, and a shard observed for one StealInterval
	// and lagging below half the fleet median is cancelled at a checkpoint
	// boundary and its remaining trials re-split two ways across idle
	// slots. Requires CheckpointEvery > 0 — stealing without checkpoints
	// would forfeit the straggler's completed trials. 0 disables stealing.
	StealInterval time.Duration
	// Progress, when non-nil, receives aggregated job-wide samples as
	// workers report. Calls are serialised. Under a Scheduler every job
	// feeds the same hook; per-job streams come from Job.Subscribe.
	Progress func(Progress)
	// Logf, when non-nil, receives supervisor lifecycle lines: launches,
	// retries, validated partials, failures.
	Logf func(format string, args ...any)
}

// Defaults returns the options baseline every surface starts from — the
// same values cmd/phi-fleet and cmd/phi-serve expose as flag defaults
// (cli.FleetFlags reads them from here, so the flag surface and the
// library cannot disagree). Launcher and Dir stay unset: they are the two
// fields with no sensible default, and Validate requires them.
func Defaults() Options {
	return Options{
		Shards:  3,
		Retries: 1,
		Backoff: time.Second,
	}
}

// Validate reports the first way o is not a runnable fan-out config.
// Negative durations and budgets are rejected loudly here — previously a
// negative Timeout produced a context that expired instantly (every shard
// "timed out"), and a negative Retries failed shards after one attempt
// while claiming a retry budget existed.
func (o Options) Validate() error {
	switch {
	case o.Shards < 1:
		return fmt.Errorf("distrib: need at least 1 shard, got %d", o.Shards)
	case o.Launcher == nil:
		return errors.New("distrib: no Launcher configured")
	case o.Dir == "":
		return errors.New("distrib: no working directory configured")
	case o.Timeout < 0:
		return fmt.Errorf("distrib: negative per-attempt timeout %s", o.Timeout)
	case o.Retries < 0:
		return fmt.Errorf("distrib: negative retry budget %d", o.Retries)
	case o.Backoff < 0:
		return fmt.Errorf("distrib: negative retry backoff %s", o.Backoff)
	case o.MaxConcurrent < 0:
		return fmt.Errorf("distrib: negative concurrency cap %d", o.MaxConcurrent)
	case o.CheckpointEvery < 0:
		return fmt.Errorf("distrib: negative checkpoint cadence %d", o.CheckpointEvery)
	case o.StealInterval < 0:
		return fmt.Errorf("distrib: negative steal interval %s", o.StealInterval)
	case o.StealInterval > 0 && o.CheckpointEvery <= 0:
		return errors.New("distrib: straggler stealing needs CheckpointEvery > 0 — cancelling an uncheckpointed shard would forfeit its completed trials")
	}
	return nil
}
