// Command phi-bench runs the ported workloads standalone (golden runs) and
// reports their shapes, tick counts, work units and wall times — a quick
// way to inspect the benchmark suite itself. With -sweep it instead drives
// the fleet orchestrator: the full benchmarks × fault-models × policy
// injection grid, plus — with -beam-runs — accelerated-beam cells
// (benchmark × device × ECC arm), all on one shared worker pool, with the
// SweepResult optionally exported as a JSON artifact for cmd/phi-report
// and CI.
//
// Usage:
//
//	phi-bench [-bench all|DGEMM,LUD,...] [-seed 1] [-reps 3]
//	phi-bench -sweep [-bench all|DGEMM,LUD,...] [-n 600] [-models Single,Double,Random,Zero]
//	          [-policies by-frame] [-campaign-seed 1701] [-workers 8]
//	          [-beam-runs 6000] [-beam-devices KNC3120A] [-beam-ecc-ablation]
//	          [-shard k/K] [-out sweep.json] [-monitor-jsonl mon.jsonl]
//	phi-bench -spec spec.json [-shard k/K | -plan k/K:injOff+injN:beamOff+beamN]
//	          [-progress-jsonl] [-out -]
//	          [-checkpoint-out ck.json -checkpoint-every 1000]
//
// With -plan the sweep runs exactly the given trial ranges of every cell
// (internal/distrib.FormatPlanArg) — the one form the fan-out supervisor
// sends its workers, balanced shards and the partial-overlap cache's fresh
// ranges alike. -shard k/K (1-based) is the operator's sugar for the
// balanced plan, the k-th of K deterministic slices of every cell's trials;
// the K partials fold back into the monolithic artifact, byte for byte,
// with cmd/phi-merge.
//
// With -spec the whole sweep grid comes from a fleet spec JSON file ("-"
// reads stdin) instead of the grid flags — the shard-worker protocol
// cmd/phi-fleet drives. -progress-jsonl switches stderr progress to
// machine-readable JSONL events (one internal/distrib.Event per line), and
// -out - streams the artifact to stdout (suppressing the per-cell tables),
// so a worker (local, over ssh, or in a pod started by kubectl run) needs
// no filesystem handshake at all; cmd/phi-fleet runs every worker so.
//
// -checkpoint-out with -checkpoint-every N makes a shard worker elastic: a
// valid shard-partial artifact covering the contiguous trial prefix
// completed so far lands (atomically) every N trials. The worker never
// reads it back: on a relaunch the supervisor banks it and sends the next
// worker only the remaining ranges as its -plan. It requires -shard or
// -plan — a monolithic run has no shard plan to checkpoint — and does not
// change the final artifact's bytes.
package main

import "phirel/internal/cli"

func main() { cli.Main(cli.Bench) }
