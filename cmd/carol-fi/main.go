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

import "phirel/internal/cli"

func main() { cli.Main(cli.CarolFI) }
