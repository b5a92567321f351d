// Command phi-report re-derives the paper's tables from published data —
// the analog of the paper artifact's parser scripts over the public log
// release. With -in it folds a JSONL log written by carol-fi -out through
// the campaign's own record fold (core.Tally), one result per policy and
// benchmark, and prints each policy's Figure 4/5/6 and Table 1 tables, so
// a log re-derives the tables carol-fi printed, byte for byte. With -sweep
// it renders the figures of a fleet SweepResult written by phi-bench
// -sweep -out. Both print through the figures package's table groups.
//
// Usage:
//
//	phi-report -in logs.jsonl [-csv]
//	phi-report -in - [-csv]   # read the JSONL log from stdin
//	phi-report -sweep sweep.json [-csv]
package main

import "phirel/internal/cli"

func main() { cli.Main(cli.Report) }
