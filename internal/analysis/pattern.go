package analysis

import "fmt"

// Pattern is the paper's spatial classification of a corrupted output
// (§4.3, Figure 2).
type Pattern int

const (
	// PatternNone: no mismatches (masked run); never appears in SDC stats.
	PatternNone Pattern = iota
	// PatternSingle: exactly one corrupted element.
	PatternSingle
	// PatternLine: multiple corrupted elements spanning exactly one
	// dimension (a row or column segment).
	PatternLine
	// PatternSquare: corrupted elements spanning two dimensions in a
	// dense block.
	PatternSquare
	// PatternCubic: corrupted elements spanning three dimensions in a
	// dense block (only LavaMD has 3-D outputs).
	PatternCubic
	// PatternRandom: multiple corrupted elements with no clear pattern.
	PatternRandom
)

// Patterns lists the SDC patterns in the paper's Figure 2 legend order.
var Patterns = []Pattern{PatternCubic, PatternSquare, PatternLine, PatternSingle, PatternRandom}

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternNone:
		return "none"
	case PatternSingle:
		return "Single"
	case PatternLine:
		return "Line"
	case PatternSquare:
		return "Square"
	case PatternCubic:
		return "Cubic"
	case PatternRandom:
		return "Random"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// blockDensity is the minimum fill fraction of the mismatch bounding box
// for a multi-dimensional spread to count as a coherent block (square/cubic)
// rather than random scatter. See DESIGN.md §5.3.
const blockDensity = 0.35

// pattern assigns the paper's pattern to n mismatches whose bounding box
// spans sx × sy × sz elements.
func pattern(n, sx, sy, sz int) Pattern {
	switch n {
	case 0:
		return PatternNone
	case 1:
		return PatternSingle
	}
	spanned := 0
	for _, s := range [3]int{sx, sy, sz} {
		if s > 1 {
			spanned++
		}
	}
	dense := float64(n) >= blockDensity*float64(sx*sy*sz)
	switch {
	case spanned == 0:
		// Distinct indices cannot share a coordinate of a consistent
		// shape; call such a set single.
		return PatternSingle
	case spanned == 1:
		return PatternLine
	case !dense:
		return PatternRandom
	case spanned == 2:
		return PatternSquare
	default:
		return PatternCubic
	}
}
