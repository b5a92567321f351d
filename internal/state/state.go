// Package state is the memory substrate that makes phirel benchmarks
// injectable: every program variable that a fault may corrupt lives in a
// Cell (scalars: loop bounds, constants, counters) or a Buf (arrays:
// matrices, particle fields, DP tables), and registers itself in a Registry
// of injection sites grouped into frames.
//
// The Registry plays the role GDB's frame/variable walk plays for CAROL-FI.
// Frames are pushed and popped as benchmark phases enter and exit, so the
// set of visible variables changes over execution time exactly as the call
// stack does in the real tool. The one kernel run a benchmark key makes
// records that stack per tick (the runner's horizon). A trial's victim is
// picked before its run starts, by PickIn under a selection policy over the
// recorded stack of its tick (bench.Runner.Victim), and resolved into this
// Registry's live site at that tick (bench.Runner.Site), where the fault
// model is applied to its bits or armed.
//
// Nothing in this package is safe for concurrent use: a benchmark instance,
// its cells and its registry belong to the one goroutine running it, and
// corruption and registry changes happen only at quiescent instrumentation
// points.
package state

import (
	"fmt"

	"phirel/internal/fault"
	"phirel/internal/stats"
)

// Region labels a group of sites for criticality attribution, e.g. "matrix",
// "control", "constant", "mesh.sort", "mesh.tree", "charge", "distance".
type Region string

// Kind identifies the machine representation of a site's elements.
type Kind int

const (
	KindF64 Kind = iota
	KindF32
	KindI64
	KindI32
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindF64:
		return "f64"
	case KindF32:
		return "f32"
	case KindI64:
		return "i64"
	case KindI32:
		return "i32"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Bytes returns the element width in bytes.
func (k Kind) Bytes() int {
	switch k {
	case KindF64, KindI64:
		return 8
	default:
		return 4
	}
}

// Report records one corruption event for logging and attribution.
type Report struct {
	Site   string
	Region Region
	Kind   Kind
	// Elem is the flat element index inside a buffer, or -1 for a scalar cell.
	Elem int
	fault.Corruption
}

// Site is one injectable program variable (scalar or array).
type Site interface {
	// Name returns the variable's source-level name, unique within a frame.
	Name() string
	// Region returns the attribution label.
	Region() Region
	// Kind returns the element representation.
	Kind() Kind
	// SizeBytes returns the total allocated size; selection policies that
	// weight by footprint use this (the paper's LavaMD analysis: the charge
	// and distance arrays dominate because they are orders of magnitude
	// larger than anything else).
	SizeBytes() int
	// Corrupt applies the fault model to one uniformly chosen element (or
	// the scalar value) and returns a report.
	Corrupt(r *stats.RNG, m fault.Model) Report
}

// Dims describes the logical shape of a buffer for spatial-pattern analysis.
// A 1-D buffer has Y=Z=1; 2-D has Z=1. Flat index = (z*Y + y)*X + x.
type Dims struct {
	X, Y, Z int
}

// Dims1 returns a 1-D shape.
func Dims1(x int) Dims { return Dims{X: x, Y: 1, Z: 1} }

// Dims2 returns a 2-D shape (row-major: y is the row).
func Dims2(x, y int) Dims { return Dims{X: x, Y: y, Z: 1} }

// Dims3 returns a 3-D shape.
func Dims3(x, y, z int) Dims { return Dims{X: x, Y: y, Z: z} }

// Len returns the element count.
func (d Dims) Len() int { return d.X * d.Y * d.Z }

// Coord maps a flat index to (x,y,z).
func (d Dims) Coord(i int) (x, y, z int) {
	x = i % d.X
	i /= d.X
	y = i % d.Y
	z = i / d.Y
	return
}

// Index maps (x,y,z) to a flat index.
func (d Dims) Index(x, y, z int) int { return (z*d.Y+y)*d.X + x }

// Rank returns the number of dimensions with extent > 1.
func (d Dims) Rank() int {
	r := 0
	if d.X > 1 {
		r++
	}
	if d.Y > 1 {
		r++
	}
	if d.Z > 1 {
		r++
	}
	return r
}

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }
