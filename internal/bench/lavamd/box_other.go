//go:build !amd64

package lavamd

// box is the Go box everywhere but amd64.
func (l *LavaMD) box(b, ppb int, a2 float64) { l.boxGo(b, 0, ppb, a2) }
