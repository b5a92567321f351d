// Command phi-merge folds shard-partial sweep artifacts — written by
// phi-bench -sweep -shard k/K -out — back into one complete SweepResult,
// byte-identical to the artifact a monolithic phi-bench -sweep run with the
// same spec would have written. It validates before folding: every partial
// of the K-way split must be present exactly once and all must carry the
// same grid, seeds and trial counts; anything else (including passing an
// already-merged artifact) is a hard error.
//
// Arguments may be literal paths or glob patterns (quote patterns if you
// want phi-merge rather than your shell to expand them — both work): every
// argument must match at least one file, and a partial reached twice, by
// repetition or overlapping patterns, is rejected up front by path instead
// of surfacing later as a duplicated shard index.
//
// Usage:
//
//	phi-merge -out sweep.json sweep-shard-1-of-3.json sweep-shard-2-of-3.json sweep-shard-3-of-3.json
//	phi-merge -out sweep.json 'sweep-shard-*.json'
package main

import "phirel/internal/cli"

func main() { cli.Main(cli.Merge) }
