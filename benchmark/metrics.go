package main

import (
	"sort"
	"strings"
)

// runSeconds is how long one run measures when -seconds is not given; it is
// also BENCHMARK.json's run_seconds.
const runSeconds = 15

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// The four workloads. Names are fixed: every later performance claim is made
// on one of them.
var workloads = []workloadDef{
	{"inject_grid", "in-process Sweep.Run, 6 kernels x 4 fault models: kernel and trial layers on the armed path do >95% of the work; shard, sweep and request layers are bypassed"},
	{"beam_grid", "in-process beam-only Sweep.Run, 6 kernels x 2 devices x ECC on/off: same kernels on the unarmed fast path behind device filtering; a gain on the armed path predicts no change here"},
	{"fanout_ckpt", "distrib.Run over exec'd phi-bench workers, 4 shards checkpointing 8 chunks each: process start, per-chunk rebuild, re-merge, re-encode, validate and merge dominate"},
	{"serve_mix", "serve.Server over HTTP, closed loop of nproc clients sending cold, partial-overlap and exact-hit requests: admission, cache, plan and finalize dominate"},
}

// metricDef is one named metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none. Moves says which end-to-end metric
// on which workload a per-layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd is what a user of the sweep path pays, reported by every workload
// with tracing off. cold_p50_ms is the time from asking to a servable
// artifact with nothing cached: one repetition on the sweep workloads, one
// cold POST on serve_mix.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_trial", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// kernels are the six workloads of the paper, as the bench registry names
// them; metric names carry them in lower case.
var kernels = []string{"CLAMR", "DGEMM", "HotSpot", "LavaMD", "LUD", "NW"}

// perLayer lists the per-layer ledger, all taken in a traced run. The first
// block is measured by calling each layer's public functions directly and
// reads the same under every workload; the second is observed in the traced
// workload and reads 0 where the workload bypasses the layer.
func perLayer() []metricDef {
	const (
		grids   = "trials_per_s, cpu_ms_per_trial on inject_grid and beam_grid"
		inject  = "trials_per_s, cpu_ms_per_trial on inject_grid"
		beamG   = "trials_per_s, cpu_ms_per_trial on beam_grid"
		fanout  = "trials_per_s on fanout_ckpt"
		cold    = "cold_p50_ms, trials_per_s on serve_mix"
		hits    = "cpu_ms_per_trial on serve_mix"
		nothing = "none expected; guards the surface"
	)
	lo := func(name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Moves: moves}
	}
	hi := func(name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", Moves: moves}
	}
	var out []metricDef
	for _, k := range kernels {
		b := strings.ToLower(k)
		out = append(out,
			lo("bench."+b+".golden_ms", "ms", grids),
			lo("bench."+b+".armed_ms", "ms", inject),
			lo("bench."+b+".allocs", "count", grids),
			lo("bench."+b+".reset_us", "us", grids),
			lo("analysis."+b+".compare_us", "us", grids+", small"),
			lo("core."+b+".inject_ms", "ms", inject),
			lo("core."+b+".setup_ms", "ms", fanout+" (paid per cell per chunk) and "+cold),
			lo("beam."+b+".noecc_run_us", "us", beamG),
		)
	}
	out = append(out,
		lo("beam.reach_frac", "frac", beamG),
		lo("phi.sample_fault_ns", "ns", beamG),
		lo("engine.overhead_ns", "ns", nothing),

		lo("fleet.hash_us", "us", cold),
		lo("fleet.encode_ms", "ms", fanout+"; "+cold),
		lo("fleet.decode_ms", "ms", fanout+"; "+cold),
		lo("fleet.merge_k4_ms", "ms", fanout+"; "+cold),
		lo("fleet.merge_k16_ms", "ms", fanout),
		lo("fleet.slice_us", "us", "serve.partial_p50_ms"),
		lo("distrib.proc_start_ms", "ms", fanout),
		lo("distrib.overhead_k1_ms", "ms", fanout),
		lo("distrib.overhead_k4_ms", "ms", fanout),
		lo("distrib.overhead_k16_ms", "ms", fanout),

		lo("serve.post_hit_us", "us", "serve.hit_p50_us; "+hits),
		lo("serve.post_miss_us", "us", "serve.admit_p50_ms; "+cold),
		lo("serve.result_200_us", "us", "serve.hit_p50_us; "+hits),
		lo("serve.result_304_us", "us", nothing),
		lo("serve.status_us", "us", nothing),
		lo("serve.list_ms", "ms", nothing),
		lo("serve.stats_us", "us", nothing),
		lo("serve.figures_ms", "ms", nothing),
		lo("serve.monitor_ms", "ms", nothing),

		lo("monitor.observe_ns", "ns", nothing),
		lo("monitor.snapshot_us", "us", nothing),
		lo("monitor.from_sweep_ms", "ms", nothing),
		lo("monitor.tap_overhead_frac", "frac", nothing),
		lo("figures.groups_ms", "ms", nothing),
	)

	out = append(out,
		lo("fleet.artifact_kb", "KB", "fleet.encode_ms"),
		lo("fleet.pool_overhead_frac", "frac", grids),
		hi("fleet.scale_eff", "frac", grids),
		lo("fleet.ckpt_cost_ms", "ms", fanout),
		lo("fleet.ckpt_kb", "KB", fanout),
		lo("fleet.load_ckpt_ms", "ms", fanout+", on resume only"),

		lo("distrib.shard_overhead_ms", "ms", fanout),
		lo("distrib.queue_wait_ms", "ms", fanout+"; "+cold),
		lo("distrib.launch_ms", "ms", fanout+"; "+cold),
		lo("distrib.tail_ms", "ms", fanout+"; "+cold),
		lo("distrib.straggler_ratio", "ratio", fanout),
		lo("distrib.attempts", "count", fanout),
		lo("distrib.retries", "count", fanout),
		hi("distrib.nockpt_trials_per_s", "1/s", fanout),
		lo("distrib.ckpt_slowdown", "ratio", fanout),

		lo("serve.admit_p50_ms", "ms", cold),
		lo("serve.partial_p50_ms", "ms", "trials_per_s on serve_mix"),
		lo("serve.hit_p50_us", "us", hits),
		lo("serve.hit_p99_us", "us", hits),
		hi("serve.hit_req_per_s", "1/s", hits),
		lo("serve.queue_wait_ms", "ms", cold),
		lo("serve.finalize_ms", "ms", cold),
		lo("serve.done_gap_ms", "ms", "none; 0 once done means servable"),
		lo("serve.polls_409", "count", cold),
		lo("serve.cold_p95_ms", "ms", cold),
		lo("serve.partial_p95_ms", "ms", "trials_per_s on serve_mix"),
		hi("serve.hit_ratio", "frac", nothing),
		hi("serve.cached_trial_frac", "frac", nothing),
		lo("serve.cache_kb", "KB", nothing),
	)
	for _, s := range shareSpans {
		out = append(out, lo("share."+s, "frac", "the workload's trials_per_s, by this share"))
	}
	out = append(out,
		lo("trace.overhead_frac", "frac", nothing),
		hi("trace.self_coverage", "frac", nothing),
	)
	return out
}

// shareSpans are the span names whose self time is reported as a share of
// the traced workload's root span.
var shareSpans = []string{
	"core.setup", "core.trials", "fleet.encode", "beam.run",
	"distrib.run", "distrib.launch",
	"serve.post", "serve.wait", "serve.get_result",
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills out with one value per definition, taking the number from
// got and 0 where the run did not observe the metric.
func report(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
