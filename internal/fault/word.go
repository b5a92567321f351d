package fault

import (
	"encoding/binary"
	"math"

	"phirel/internal/stats"
)

// Corruption describes the effect of one fault-model application on a value.
type Corruption struct {
	Model       Model
	BitsChanged int
	// Before and After hold the raw little-endian bit patterns, padded to 8
	// bytes, for logging (mirrors CAROL-FI's record of the flipped value).
	Before, After uint64
	// Width is the value width in bytes (8, 4, 2 or 1).
	Width int
}

// Changed reports whether the value actually changed.
func (c Corruption) Changed() bool { return c.Before != c.After }

// CorruptUint64 applies the model to a 64-bit pattern.
func CorruptUint64(r *stats.RNG, m Model, v uint64) (uint64, Corruption) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	n := m.Apply(r, buf[:])
	nv := binary.LittleEndian.Uint64(buf[:])
	return nv, Corruption{Model: m, BitsChanged: n, Before: v, After: nv, Width: 8}
}

// CorruptUint32 applies the model to a 32-bit pattern.
func CorruptUint32(r *stats.RNG, m Model, v uint32) (uint32, Corruption) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	n := m.Apply(r, buf[:])
	nv := binary.LittleEndian.Uint32(buf[:])
	return nv, Corruption{Model: m, BitsChanged: n, Before: uint64(v), After: uint64(nv), Width: 4}
}

// CorruptFloat64 applies the model to the IEEE-754 bits of v.
func CorruptFloat64(r *stats.RNG, m Model, v float64) (float64, Corruption) {
	nb, c := CorruptUint64(r, m, math.Float64bits(v))
	return math.Float64frombits(nb), c
}

// CorruptFloat32 applies the model to the IEEE-754 bits of v.
func CorruptFloat32(r *stats.RNG, m Model, v float32) (float32, Corruption) {
	nb, c := CorruptUint32(r, m, math.Float32bits(v))
	return math.Float32frombits(nb), c
}

// CorruptInt64 applies the model to the two's-complement bits of v.
func CorruptInt64(r *stats.RNG, m Model, v int64) (int64, Corruption) {
	nb, c := CorruptUint64(r, m, uint64(v))
	return int64(nb), c
}

// CorruptInt32 applies the model to the two's-complement bits of v.
func CorruptInt32(r *stats.RNG, m Model, v int32) (int32, Corruption) {
	nb, c := CorruptUint32(r, m, uint32(v))
	return int32(nb), c
}
