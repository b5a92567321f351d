// Command carol-fi runs CAROL-FI fault-injection campaigns and prints the
// paper's Figure 4/5/6 tables, the per-region criticality table, and
// mitigation recommendations. With -out it also writes the per-injection
// JSONL log (the public-data analog), which cmd/phi-report can re-analyse.
//
// Usage:
//
//	carol-fi [-bench NAME|all] [-n 10000] [-models Single,Double,Random,Zero]
//	         [-policy by-frame|by-variable|by-bytes] [-seed N] [-workers N]
//	         [-out logs.jsonl] [-regions]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/figures"
	"phirel/internal/state"
	"phirel/internal/trace"
)

func main() {
	var (
		benchName = flag.String("bench", "all", "benchmark name or 'all'")
		n         = flag.Int("n", 10000, "injections per benchmark (paper: >=10,000)")
		modelsArg = flag.String("models", "", "comma-separated fault models (default: all four)")
		policyArg = flag.String("policy", "by-frame", "site selection policy")
		seed      = flag.Uint64("seed", 1701, "campaign seed")
		benchSeed = flag.Uint64("bench-seed", 1, "workload input seed")
		workers   = flag.Int("workers", 8, "parallel injectors")
		out       = flag.String("out", "", "write per-injection JSONL log here")
		regions   = flag.Bool("regions", false, "print per-region criticality and recommendations")
	)
	flag.Parse()

	policy, err := state.ParsePolicy(*policyArg)
	if err != nil {
		fatal(err)
	}
	models, err := fault.ParseModels(*modelsArg)
	if err != nil {
		fatal(err)
	}
	names := all.Suite
	if *benchName != "all" {
		names = []string{*benchName}
	}

	// Records go straight from the workers to the JSONL log, so -out costs
	// O(worker skew) memory instead of O(N). The log orders them by
	// benchmark, then Seq, so its bytes do not depend on -workers.
	var logw *trace.Ordered[core.InjectionRecord]
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		first := map[string]int{}
		for i, name := range names {
			first[name] = i * *n
		}
		logw = trace.NewOrdered(f, func(r core.InjectionRecord) int { return first[r.Benchmark] + r.Seq })
	}
	// die closes the partial log before exiting, so an interrupted or
	// failed campaign still leaves valid JSONL behind.
	die := func(err error) {
		if logw != nil {
			logw.Close()
		}
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	results := map[string]*core.CampaignResult{}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "carol-fi: injecting %d faults into %s...\n", *n, name)
		cfg := core.CampaignConfig{
			Benchmark: name, N: *n, Models: models, Policy: policy,
			Seed: *seed, BenchSeed: *benchSeed, Workers: *workers,
			Progress: func(done, total int) {
				if done == total || done%(max(total/10, 1)) == 0 {
					fmt.Fprintf(os.Stderr, "carol-fi: %s %d/%d\n", name, done, total)
				}
			},
		}
		if logw != nil {
			cfg.Observe = logw.Observe
		}
		res, err := core.RunCampaignContext(ctx, cfg)
		if err != nil {
			die(err)
		}
		results[name] = res
	}

	fmt.Println(figures.Figure4(results))
	fmt.Println(figures.Figure5(results, false))
	fmt.Println(figures.Figure5(results, true))
	fmt.Println(figures.Figure6(results, false))
	fmt.Println(figures.Figure6(results, true))
	if *regions {
		for _, name := range names {
			fmt.Println(figures.Table1(results[name], 20))
			fmt.Println(figures.Recommendations(results[name], 20))
		}
	}
	if logw != nil {
		if err := logw.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "carol-fi: wrote %d records to %s\n", logw.Count(), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "carol-fi:", err)
	os.Exit(1)
}
