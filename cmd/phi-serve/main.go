// Command phi-serve runs the sweep service: a resident HTTP server that
// accepts canonical sweep specs, schedules them on the distrib fan-out
// scheduler (shared concurrency budget, per-sweep cancellation), streams
// progress over server-sent events, and serves merged artifacts and
// rendered paper figures. Sweep IDs are canonical spec hashes, so the
// artifact cache is content-addressed: a repeated question is answered
// from cache with zero compute, byte-identical to the first answer, and
// identical concurrent submissions coalesce onto one in-flight job.
// Overlapping questions reuse cached prefixes: a sweep whose base-equal
// smaller sibling is cached computes only the missing trial ranges (the
// partial-overlap planner; see internal/serve). -cache-max-bytes bounds
// the cache with LRU eviction, -admission-log records each submission's
// cache outcome, and GET /v1/stats serves the cumulative counters.
//
// Usage:
//
//	phi-serve -addr :8421 -cache-dir serve-cache -shards 4
//	phi-serve -cache-max-bytes 1073741824 -admission-log admissions.jsonl
//	phi-serve -addr :8421 -worker-cmd bin/phi-bench -max-concurrent 8
//	phi-serve -ssh node1,node2 -remote-bin /opt/phirel/phi-bench
//	phi-serve -k8s -k8s-image ghcr.io/you/phirel:latest
//
//	curl -d @spec.json localhost:8421/v1/sweeps
//	curl localhost:8421/v1/sweeps/<id>
//	curl -N localhost:8421/v1/sweeps/<id>/events
//	curl localhost:8421/v1/sweeps/<id>/result
//	curl "localhost:8421/v1/sweeps/<id>/figures?format=text"
//
// Worker transports and supervision flags mirror cmd/phi-fleet exactly
// (the surfaces are shared through internal/cli), so anything a one-shot
// fan-out can do, the service can serve.
package main

import (
	"phirel/internal/cli"
	"phirel/internal/cli/phiserve"
)

func main() { cli.Main(phiserve.Serve) }
