package mitigation

import (
	"math"

	"phirel/internal/analysis"
)

// Checkpointing models checkpoint/restart under a DUE rate — the system
// lever the paper connects its findings to ("by reducing the DUE rate
// caused by fault in Sort and Tree, HPC systems can allow lowering the
// frequency of checkpointing techniques", §6).
type Checkpointing struct {
	// DumpHours is the time to write one checkpoint.
	DumpHours float64
	// RestartHours is the time to restore after a failure.
	RestartHours float64
	// MTBFHours is the machine's mean time between DUEs.
	MTBFHours float64
}

// FromFIT builds a model from a per-board DUE FIT and a board count.
func FromFIT(dueFIT float64, boards int, dumpHours, restartHours float64) Checkpointing {
	return Checkpointing{
		DumpHours:    dumpHours,
		RestartHours: restartHours,
		MTBFHours:    analysis.MachineMTBFDays(dueFIT, boards) * 24,
	}
}

// OptimalInterval returns Young's first-order optimal checkpoint interval:
// sqrt(2 · dump · MTBF).
func (c Checkpointing) OptimalInterval() float64 {
	if c.DumpHours <= 0 || math.IsInf(c.MTBFHours, 1) {
		return math.Inf(1)
	}
	return math.Sqrt(2 * c.DumpHours * c.MTBFHours)
}

// ExpectedRuntime returns the expected wall time to finish workHours of
// useful computation with checkpoints every interval hours, using the
// standard first-order waste model: each interval pays the dump cost, and
// failures (rate 1/MTBF) lose on average half an interval plus the restart.
func (c Checkpointing) ExpectedRuntime(workHours, interval float64) float64 {
	if interval <= 0 {
		return math.Inf(1)
	}
	// float64(…) rounds each product before its sum (a halving is a product
	// by 0.5), so no target fuses the two into one multiply-add.
	segments := workHours / interval
	base := workHours + float64(segments*c.DumpHours)
	if math.IsInf(c.MTBFHours, 1) || c.MTBFHours <= 0 {
		return base
	}
	failures := base / c.MTBFHours
	lost := float64(failures * (float64(interval/2) + c.DumpHours + c.RestartHours))
	return base + lost
}

// Efficiency returns workHours / ExpectedRuntime at the given interval.
func (c Checkpointing) Efficiency(workHours, interval float64) float64 {
	rt := c.ExpectedRuntime(workHours, interval)
	if math.IsInf(rt, 1) || rt <= 0 {
		return 0
	}
	return workHours / rt
}
