//go:build !amd64

package hotspot

// stencilRow is the Go row everywhere but amd64.
func stencilRow(d, s, n, so, p []float32, cx, cy, cz, cp, amb float32) {
	stencilRowGo(d, s, n, so, p, cx, cy, cz, cp, amb)
}
