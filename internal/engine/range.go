package engine

import "fmt"

// MergeRanges reconciles two completed shard trial ranges for a fold of
// [oOff, oOff+oN) into [rOff, rOff+rN): the ranges must be adjacent so the
// merged range stays contiguous and per-trial ordered series (beam's
// Figure 3 error series) recombine in global index order by concatenation
// alone. It returns the merged range's offset, whether o precedes r (its
// ordered series go first), and whether o is empty (contributes nothing).
// Both campaign merge algebras (core.CampaignResult.Merge, beam.Result.Merge)
// check through this one helper and then sum the counts with the same
// function that assembles a run's worker shards (CampaignResult.Add,
// beam's addCounts). Worker shards need no range check: their trials are
// strided, not contiguous, so their counts are summed directly and beam
// sorts their ordered series by trial index.
func MergeRanges(rOff, rN, oOff, oN int) (offset int, prepend, empty bool, err error) {
	switch {
	case oN == 0:
		return rOff, false, true, nil
	case rN == 0:
		return oOff, false, false, nil
	case oOff == rOff+rN: // o directly follows r
		return rOff, false, false, nil
	case oOff+oN == rOff: // o directly precedes r
		return oOff, true, false, nil
	default:
		return 0, false, false, fmt.Errorf("trial ranges [%d,%d) and [%d,%d) are not adjacent",
			rOff, rOff+rN, oOff, oOff+oN)
	}
}
