// Package fault implements the four transient-fault models of the paper's
// Section 5.2 — Single, Double, Random, and Zero — as operations on raw bit
// patterns, plus typed helpers for the scalar kinds that appear in the
// benchmarks (float64, float32, int64, int32, uint8).
//
// The models deliberately act at the highest level of abstraction: they
// describe how a low-level transient fault *manifests* in an allocated
// memory value, not where it physically originated (paper §5.2: "we are
// considering all possible transient faults that, by propagating from the
// transistor level, change the value of a memory location").
package fault

import (
	"fmt"
	"strings"

	"phirel/internal/stats"
)

// Model identifies one of the paper's fault models.
type Model int

const (
	// Single flips one uniformly random bit (the classic SEU model).
	Single Model = iota
	// Double flips two distinct random bits within the same byte,
	// mirroring the paper's restriction that the two flipped bits share a
	// byte offset (spatially correlated multi-cell upsets).
	Double
	// Random overwrites every bit with a random bit.
	Random
	// Zero clears every bit.
	Zero
)

// Models lists all fault models in presentation order (matches Figures 5a/5b).
var Models = []Model{Single, Double, Random, Zero}

// String returns the paper's name for the model.
func (m Model) String() string {
	switch m {
	case Single:
		return "Single"
	case Double:
		return "Double"
	case Random:
		return "Random"
	case Zero:
		return "Zero"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel converts a model name (as printed by String, case-sensitive)
// back to a Model.
func ParseModel(s string) (Model, error) {
	for _, m := range Models {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown model %q", s)
}

// ParseModels parses a comma-separated list of model names, trimming
// surrounding whitespace — the shared CLI flag format. An empty string
// yields nil, which campaign configs treat as "all four models".
func ParseModels(s string) ([]Model, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Model
	for _, part := range strings.Split(s, ",") {
		m, err := ParseModel(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Apply corrupts the len(buf)*8-bit value stored in buf in place according
// to the model and returns the number of bits actually changed. A return of
// zero is possible for Random and Zero (the drawn pattern may equal the
// original value); the injector records this so "no-change" injections can
// be analysed separately.
func (m Model) Apply(r *stats.RNG, buf []byte) int {
	if len(buf) == 0 {
		return 0
	}
	switch m {
	case Single:
		flipBit(buf, int(r.Uint64n(uint64(len(buf)*8))))
		return 1
	case Double:
		byteIdx := int(r.Uint64n(uint64(len(buf))))
		b1 := int(r.Uint64n(8))
		b2 := int(r.Uint64n(7))
		if b2 >= b1 {
			b2++ // distinct bit in the same byte
		}
		flipBit(buf, byteIdx*8+b1)
		flipBit(buf, byteIdx*8+b2)
		return 2
	case Random:
		changed := 0
		for i := range buf {
			nb := byte(r.Uint64n(256))
			changed += popcount8(buf[i] ^ nb)
			buf[i] = nb
		}
		return changed
	case Zero:
		changed := 0
		for i := range buf {
			changed += popcount8(buf[i])
			buf[i] = 0
		}
		return changed
	default:
		panic(fmt.Sprintf("fault: invalid model %d", int(m)))
	}
}

// flipBit toggles bit i of buf (bit 0 = LSB of buf[0]).
func flipBit(buf []byte, i int) {
	buf[i/8] ^= 1 << uint(i%8)
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
