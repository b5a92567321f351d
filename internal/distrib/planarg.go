package distrib

import (
	"fmt"
	"strconv"
	"strings"

	"phirel/internal/fleet"
)

// The explicit-plan wire format: how a supervisor tells a shard worker to
// run arbitrary trial ranges instead of the balanced k-of-K split. The
// partial-overlap cache needs this — its fresh shards compute exactly the
// ranges a cached prefix is missing, which no k/K position can express.
//
// The format is "k/K:injOff+injN:beamOff+beamN" with a 1-based k, e.g.
// "2/3:600+600:0+0" — shard 2 of 3 running injection trials [600, 1200)
// and no beam runs. It is deliberately shell-safe (digits, '/', ':', '+'
// only): the ssh transport passes worker argv through a remote shell, so the
// plan argument must survive unquoted where JSON would be mangled.

// FormatPlanArg renders plan in the -plan wire form.
func FormatPlanArg(p fleet.ShardPlan) string {
	return fmt.Sprintf("%d/%d:%d+%d:%d+%d",
		p.Index+1, p.Count, p.Injection.Offset, p.Injection.N, p.Beam.Offset, p.Beam.N)
}

// ParsePlanArg parses the -plan wire form back into a ShardPlan. It
// validates shape and position only; range-vs-spec validation is
// fleet.CheckPlan's, done by the worker against the spec it loads.
func ParsePlanArg(s string) (fleet.ShardPlan, error) {
	fail := func() (fleet.ShardPlan, error) {
		return fleet.ShardPlan{}, fmt.Errorf("distrib: plan %q is not k/K:injOff+injN:beamOff+beamN", s)
	}
	fields := strings.Split(s, ":")
	if len(fields) != 3 {
		return fail()
	}
	pos := strings.Split(fields[0], "/")
	if len(pos) != 2 {
		return fail()
	}
	num := func(t string) (int, bool) {
		n, err := strconv.Atoi(t)
		return n, err == nil && n >= 0
	}
	k, ok1 := num(pos[0])
	count, ok2 := num(pos[1])
	if !ok1 || !ok2 || k < 1 || k > count {
		return fail()
	}
	parseRange := func(t string) (fleet.TrialRange, bool) {
		parts := strings.Split(t, "+")
		if len(parts) != 2 {
			return fleet.TrialRange{}, false
		}
		off, ok1 := num(parts[0])
		n, ok2 := num(parts[1])
		return fleet.TrialRange{Offset: off, N: n}, ok1 && ok2
	}
	inj, ok1 := parseRange(fields[1])
	beam, ok2 := parseRange(fields[2])
	if !ok1 || !ok2 {
		return fail()
	}
	return fleet.ShardPlan{Index: k - 1, Count: count, Injection: inj, Beam: beam}, nil
}
