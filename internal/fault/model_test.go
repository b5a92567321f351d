package fault

import (
	"math"
	"testing"
	"testing/quick"

	"phirel/internal/stats"
)

func popcountBuf(b []byte) int {
	n := 0
	for _, x := range b {
		n += popcount8(x)
	}
	return n
}

func xorBuf(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func TestModelString(t *testing.T) {
	want := map[Model]string{Single: "Single", Double: "Double", Random: "Random", Zero: "Zero"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Model(99).String() != "Model(99)" {
		t.Errorf("invalid model string: %q", Model(99).String())
	}
}

func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range Models {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Error("ParseModel accepted garbage")
	}
}

func TestParseModels(t *testing.T) {
	got, err := ParseModels(" Single, Zero ")
	if err != nil || len(got) != 2 || got[0] != Single || got[1] != Zero {
		t.Fatalf("ParseModels = %v, %v", got, err)
	}
	if got, err := ParseModels(""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	if _, err := ParseModels("Single,bogus"); err == nil {
		t.Fatal("ParseModels accepted garbage")
	}
}

// Property (paper §5.2): Single flips exactly one bit.
func TestSingleFlipsExactlyOneBitQuick(t *testing.T) {
	r := stats.NewRNG(1)
	f := func(v uint64) bool {
		orig := make([]byte, 8)
		for i := 0; i < 8; i++ {
			orig[i] = byte(v >> (8 * i))
		}
		buf := append([]byte(nil), orig...)
		n := Single.Apply(r, buf)
		return n == 1 && popcountBuf(xorBuf(orig, buf)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property (paper §5.2): Double flips exactly two distinct bits located in
// the same byte.
func TestDoubleFlipsTwoBitsSameByteQuick(t *testing.T) {
	r := stats.NewRNG(2)
	f := func(v uint64) bool {
		orig := make([]byte, 8)
		for i := 0; i < 8; i++ {
			orig[i] = byte(v >> (8 * i))
		}
		buf := append([]byte(nil), orig...)
		n := Double.Apply(r, buf)
		if n != 2 {
			return false
		}
		diff := xorBuf(orig, buf)
		changedBytes := 0
		for _, d := range diff {
			if d != 0 {
				changedBytes++
				if popcount8(d) != 2 {
					return false
				}
			}
		}
		return changedBytes == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroClearsBuffer(t *testing.T) {
	r := stats.NewRNG(3)
	buf := []byte{0xff, 0x0f, 0xa5, 0x00}
	n := Zero.Apply(r, buf)
	if n != 8+4+4+0 {
		t.Fatalf("Zero reported %d changed bits, want 16", n)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d not cleared: %#x", i, b)
		}
	}
	// Idempotent: zeroing zeros changes nothing.
	if Zero.Apply(r, buf) != 0 {
		t.Fatal("Zero on zeroed buffer reported changes")
	}
}

func TestRandomReportsExactHammingDistance(t *testing.T) {
	r := stats.NewRNG(4)
	for trial := 0; trial < 200; trial++ {
		orig := make([]byte, 8)
		for i := range orig {
			orig[i] = byte(r.Uint64n(256))
		}
		buf := append([]byte(nil), orig...)
		n := Random.Apply(r, buf)
		if n != popcountBuf(xorBuf(orig, buf)) {
			t.Fatalf("Random reported %d, actual Hamming distance %d", n, popcountBuf(xorBuf(orig, buf)))
		}
	}
}

func TestRandomChangesRoughlyHalfTheBits(t *testing.T) {
	// Random draws each byte afresh, so the bits it changes in a zero word
	// are Binomial(64, 1/2): mean 32, variance 16.
	r := stats.NewRNG(5)
	const n = 2000
	sum, sumSq := 0.0, 0.0
	for trial := 0; trial < n; trial++ {
		buf := make([]byte, 8)
		x := float64(Random.Apply(r, buf))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := (sumSq - n*mean*mean) / (n - 1)
	if math.Abs(mean-32) > 1.5 {
		t.Fatalf("Random flips %v bits of 64 on average, want ~32", mean)
	}
	if math.Abs(variance-16) > 3 {
		t.Fatalf("Random's flipped-bit count has variance %v, want ~16", variance)
	}
}

func TestApplyEmptyBuffer(t *testing.T) {
	r := stats.NewRNG(6)
	for _, m := range Models {
		if m.Apply(r, nil) != 0 {
			t.Errorf("%v on empty buffer reported changes", m)
		}
	}
}

func TestApplyInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Model(42).Apply(stats.NewRNG(1), make([]byte, 4))
}

func TestApplyDeterministicGivenSeed(t *testing.T) {
	for _, m := range Models {
		a := stats.NewRNG(99)
		b := stats.NewRNG(99)
		b1 := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		b2 := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		m.Apply(a, b1)
		m.Apply(b, b2)
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("%v not deterministic", m)
			}
		}
	}
}

func TestCorruptFloat64(t *testing.T) {
	r := stats.NewRNG(7)
	v, c := CorruptFloat64(r, Single, 1.0)
	if c.Before == c.After || c.BitsChanged != 1 {
		t.Fatalf("corruption record wrong: %+v", c)
	}
	if v == 1.0 {
		t.Fatal("single bitflip left float64 unchanged")
	}
	if c.Before != math.Float64bits(1.0) || c.After != math.Float64bits(v) {
		t.Fatal("before/after patterns wrong")
	}
	z, c := CorruptFloat64(r, Zero, 3.5)
	if z != 0 {
		t.Fatalf("Zero model gave %v, want 0", z)
	}
	if c.Width != 8 {
		t.Fatalf("width = %d", c.Width)
	}
}

func TestCorruptFloat32(t *testing.T) {
	r := stats.NewRNG(8)
	v, c := CorruptFloat32(r, Single, float32(2.0))
	if v == 2.0 || c.BitsChanged != 1 || c.Width != 4 {
		t.Fatalf("float32 corruption wrong: v=%v c=%+v", v, c)
	}
}

func TestCorruptInt64SignBits(t *testing.T) {
	r := stats.NewRNG(9)
	// Zero model on negative value must give 0, not stay negative.
	v, _ := CorruptInt64(r, Zero, -12345)
	if v != 0 {
		t.Fatalf("Zero on int64 = %d", v)
	}
	v32, _ := CorruptInt32(r, Zero, -7)
	if v32 != 0 {
		t.Fatalf("Zero on int32 = %d", v32)
	}
}

func TestCorruptInt32SingleChangesPowerOfTwo(t *testing.T) {
	r := stats.NewRNG(10)
	for i := 0; i < 100; i++ {
		v, _ := CorruptInt32(r, Single, 0)
		u := uint32(v)
		if u == 0 || u&(u-1) != 0 {
			t.Fatalf("single flip of 0 gave %#x, want power of two", u)
		}
	}
}

// Property: the reported Before/After patterns always reproduce the value
// transition for every model and width.
func TestCorruptionRecordConsistencyQuick(t *testing.T) {
	r := stats.NewRNG(12)
	f := func(v uint64, mi uint8) bool {
		m := Models[int(mi)%len(Models)]
		nv, c := CorruptUint64(r, m, v)
		return c.Before == v && c.After == nv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
