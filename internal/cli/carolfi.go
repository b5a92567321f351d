package cli

import (
	"context"
	"fmt"
	"io"

	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/figures"
	"phirel/internal/state"
)

// CarolFI is carol-fi: injection campaigns per benchmark, printed as the
// paper's Figure 4/5/6 tables (and with -regions Table 1 and the
// recommendations), with -out streaming every record to a JSONL log.
func CarolFI(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	const tool = "carol-fi"
	fs := Flags(tool, stderr)
	var (
		benchName = fs.String("bench", "all", "comma-separated benchmark names or 'all'")
		n         = fs.Int("n", 10000, "injections per benchmark (paper: >=10,000)")
		modelsArg = fs.String("models", "", "comma-separated fault models (default: all four)")
		policyArg = fs.String("policy", "by-frame", "site selection policy")
		seed      = fs.Uint64("seed", 1701, "campaign seed")
		benchSeed = fs.Uint64("bench-seed", 1, "workload input seed")
		workers   = fs.Int("workers", 8, "parallel injectors")
		out       = fs.String("out", "", "write per-injection JSONL log here")
		regions   = fs.Bool("regions", false, "print per-region criticality and recommendations")
	)
	return Run(fs, args, func() error {
		policy, err := state.ParsePolicy(*policyArg)
		if err != nil {
			return err
		}
		models, err := fault.ParseModels(*modelsArg)
		if err != nil {
			return err
		}
		names := BenchNames(*benchName)
		logw, err := openRecordLog(*out, names, *n, func(r core.InjectionRecord) (string, int) { return r.Benchmark, r.Seq })
		if err != nil {
			return err
		}

		say := Logf(stderr, tool)
		results := map[string]*core.CampaignResult{}
		for _, name := range names {
			say("injecting %d faults into %s...", *n, name)
			cfg := core.CampaignConfig{
				Benchmark: name, N: *n, Models: models, Policy: policy,
				Seed: *seed, BenchSeed: *benchSeed, Workers: *workers,
				Progress: progress(stderr, tool, name),
			}
			if logw != nil {
				cfg.Observe = logw.Observe
			}
			res, err := core.RunCampaign(ctx, cfg)
			if err != nil {
				return logw.abort(stderr, tool, err)
			}
			results[name] = res
		}

		fmt.Fprintln(stdout, figures.Figure4(results))
		fmt.Fprintln(stdout, figures.Figure5(results, false))
		fmt.Fprintln(stdout, figures.Figure5(results, true))
		fmt.Fprintln(stdout, figures.Figure6(results, false))
		fmt.Fprintln(stdout, figures.Figure6(results, true))
		if *regions {
			for _, name := range names {
				fmt.Fprintln(stdout, figures.Table1(results[name], 20))
				fmt.Fprintln(stdout, figures.Recommendations(results[name], 20))
			}
		}
		return logw.finish(stderr, tool)
	})
}
