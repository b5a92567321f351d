package state

import (
	"fmt"

	"phirel/internal/fault"
	"phirel/internal/stats"
)

// Buf is a corruptible array with a logical shape: matrices and particle
// fields (Buf[float64], Buf[float32]: the paper's HotSpot and LUD use single
// precision), DP tables (Buf[int32]) and index vectors (Buf[int]: CLAMR's
// sort keys and tree links). Benchmarks operate on Data directly (it is
// hot-loop state); the injector corrupts elements through the Site interface.
type Buf[T Elem] struct {
	name   string
	region Region
	Data   []T
	Shape  Dims
}

// NewBuf allocates a named buffer of the given shape.
func NewBuf[T Elem](name string, region Region, shape Dims) *Buf[T] {
	return &Buf[T]{name: name, region: region, Data: make([]T, shape.Len()), Shape: shape}
}

// WrapBuf registers an existing slice as a buffer site; len(data) must equal
// shape.Len().
func WrapBuf[T Elem](name string, region Region, data []T, shape Dims) *Buf[T] {
	if len(data) != shape.Len() {
		panic(fmt.Sprintf("state: %s: data length %d != shape %v", name, len(data), shape))
	}
	return &Buf[T]{name: name, region: region, Data: data, Shape: shape}
}

// Name implements Site.
func (b *Buf[T]) Name() string { return b.name }

// Region implements Site.
func (b *Buf[T]) Region() Region { return b.region }

// Kind implements Site.
func (b *Buf[T]) Kind() Kind { return kindOf[T]() }

// SizeBytes implements Site.
func (b *Buf[T]) SizeBytes() int { return b.Kind().Bytes() * len(b.Data) }

// Len returns the element count.
func (b *Buf[T]) Len() int { return len(b.Data) }

// At returns element (x,y,z).
func (b *Buf[T]) At(x, y, z int) T { return b.Data[b.Shape.Index(x, y, z)] }

// Set stores element (x,y,z).
func (b *Buf[T]) Set(x, y, z int, v T) { b.Data[b.Shape.Index(x, y, z)] = v }

// Corrupt implements Site: one uniformly chosen element.
func (b *Buf[T]) Corrupt(r *stats.RNG, m fault.Model) Report {
	return b.CorruptElem(r, m, r.Intn(len(b.Data)))
}

// CorruptElem corrupts a specific element (used by the beam adapter for
// vector-lane and cache-line bursts).
func (b *Buf[T]) CorruptElem(r *stats.RNG, m fault.Model, i int) Report {
	return Report{Site: b.name, Region: b.region, Kind: b.Kind(), Elem: i, Corruption: corrupt(r, m, &b.Data[i])}
}
