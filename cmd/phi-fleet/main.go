// Command phi-fleet is the distributed fan-out driver for fleet sweeps: it
// splits a sweep K ways along the shard seam, launches K phi-bench shard
// workers (local subprocesses by default, remote hosts with -ssh, pods
// with -k8s),
// supervises them — per-attempt timeouts, bounded retry with backoff for
// crashed workers, aggregated JSONL progress — and folds the validated
// partials into one merged artifact, byte-identical to a monolithic
// phi-bench -sweep with the same spec. It is the one-command form of the
// shard/merge loop that closes the ROADMAP remote-execution item.
//
// Usage:
//
//	phi-fleet -shards 10 -n 10000 -beam-runs 10000 -beam-ecc-ablation -out sweep.json
//	phi-fleet -shards 3 -spec spec.json -worker-cmd "bin/phi-bench" -out sweep.json
//	phi-fleet -shards 8 -ssh node1,node2,node3 -remote-bin /opt/phirel/phi-bench -out sweep.json
//	phi-fleet -shards 16 -k8s -k8s-image ghcr.io/you/phirel:latest -k8s-namespace phirel -out sweep.json
//	phi-fleet -shards 8 -checkpoint-every 2000 -steal-interval 30s -out sweep.json
//
// The grid flags mirror phi-bench -sweep exactly, so swapping one command
// for the other changes nothing about the resulting artifact. At most one
// worker transport may be named: -k8s (one pod per shard attempt, via
// kubectl run), -ssh (remote hosts) or -worker-cmd (explicit local
// command); with none, a phi-bench binary next to the phi-fleet executable
// runs, else phi-bench from PATH.
//
// With -checkpoint-every N every worker periodically lands a valid partial
// covering its completed trial prefix, and a relaunched worker resumes
// from it instead of recomputing from trial zero. Adding -steal-interval
// arms the straggler watchdog: shards below half the fleet's median
// progress rate are cancelled at a checkpoint boundary and their remaining
// trials re-split two ways across idle slots. Both leave the merged artifact byte-identical
// to the uninterrupted run.
package main

import "phirel/internal/cli"

func main() { cli.Main(cli.Fleet) }
