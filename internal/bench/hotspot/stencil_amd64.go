package hotspot

// stencilRowSSE2 is stencilRowGo four columns at a time (stencil_amd64.s)
// for rows of at least 5 columns; d, n, so and p are at least as long as s.
//
//go:noescape
func stencilRowSSE2(d, s, n, so, p []float32, cx, cy, cz, cp, amb float32)

// stencilRow writes to d the stencil update of the row s (see stencilRowGo)
// with the amd64 kernel, whose packed operations round each lane as the Go
// row's scalar ones do, in the same order and on the same operands, so
// every column gets the Go row's bits. Rows of fewer than 5 columns stay on
// the Go row.
func stencilRow(d, s, n, so, p []float32, cx, cy, cz, cp, amb float32) {
	cols := len(s)
	d, n, so, p = d[:cols], n[:cols], so[:cols], p[:cols]
	if cols < 5 {
		stencilRowGo(d, s, n, so, p, cx, cy, cz, cp, amb)
		return
	}
	stencilRowSSE2(d, s, n, so, p, cx, cy, cz, cp, amb)
}
