// Command phi-beam runs accelerated neutron-beam campaigns against the
// simulated Xeon Phi and prints the paper's Figure 2 (FIT + spatial
// patterns), Figure 3 (FIT reduction vs tolerance), and the machine-scale
// extrapolation table (§4.2). Campaigns run on the shared campaign engine
// (internal/engine): its workers hand each record straight to the -out
// JSONL log in O(workers) memory, SIGINT cancels cleanly leaving a valid
// partial log, and -progress reports completion like phi-bench does.
//
// Usage:
//
//	phi-beam [-runs 40000] [-seed N] [-workers N] [-device KNC3120A]
//	         [-no-ecc] [-out beam.jsonl] [-progress] [-extrapolate]
//	         [-monitor-jsonl mon.jsonl] [-monitor-temp 330] [-monitor-every 1000]
//
// With -monitor-jsonl a resident reliability monitor (internal/monitor)
// observes every record the -out log is handed and appends rolling
// FIT/MTBF snapshots — one JSONL line per -monitor-every records plus one
// per benchmark boundary; the final line equals the post-hoc fit exactly.
package main

import "phirel/internal/cli"

func main() { cli.Main(cli.Beam) }
