package stats

import (
	"hash/fnv"
	"math"
	"math/big"
	"testing"
)

// ulps is the distance between a and b in units in the last place; both
// are finite and of one sign.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestExpSpecialCases(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{0, 1},
		{math.Copysign(0, -1), 1},
		{1, math.E},
		{710, math.Inf(1)},
		{-746, 0},
		{0x1p-29, 1 + 0x1p-29},
		{-0x1p-29, 1 - 0x1p-29},
	} {
		if got := Exp(c.x); !sameBits(got, c.want) && ulps(got, c.want) > 1 {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Exp(7.09782712893383973096e+02); math.IsInf(got, 0) {
		t.Errorf("Exp(Overflow) = %v, want finite", got)
	}
	if nan := math.Float64frombits(0x7ff8000000000abc); math.Float64bits(Exp(nan)) != 0x7ff8000000000abc {
		t.Errorf("Exp(NaN) = %#x, want the argument back", math.Float64bits(Exp(nan)))
	}
	// The argument at which LavaMD's underflow begins: subnormal results
	// stay exact powers of two scaled, and the last is the smallest one.
	if got := Exp(-745.1332191019411); got != 5e-324 {
		t.Errorf("Exp(Underflow) = %v, want the smallest subnormal", got)
	}
}

// prec is the working precision of the references below, in bits.
const prec = 160

// ln2Big is ln 2 to prec bits: Σ 1/(n·2^n).
func ln2Big() *big.Float {
	sum, term := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec)
	for n := int64(1); n < prec+10; n++ {
		term.SetMantExp(big.NewFloat(1).SetPrec(prec), -int(n))
		sum.Add(sum, term.Quo(term, new(big.Float).SetInt64(n)))
	}
	return sum
}

// expRef is e**x rounded once to float64: x = k·ln2 + r and a Taylor
// series for e**r, all to prec bits.
func expRef(x float64, ln2 *big.Float) float64 {
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(prec).SetFloat64(x)
	r.Sub(r, new(big.Float).SetPrec(prec).Mul(ln2, big.NewFloat(k)))
	sum, term := big.NewFloat(1).SetPrec(prec), big.NewFloat(1).SetPrec(prec)
	for n := int64(1); n < 60; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
	}
	v, _ := sum.SetMantExp(sum, int(k)).Float64()
	return v
}

// Exp is within 1 ulp of the correctly rounded result over a sweep of its
// domain, subnormal results included, and within 2 ulps of the host's
// math.Exp. Two, not one: amd64's assembly exp is 2 ulps from Exp on about
// one argument in 10⁴. The name dates from when it also checked
// stats.Log.
func TestExpLogWithinUlp(t *testing.T) {
	ln2 := ln2Big()
	r := NewRNG(36)
	for i := 0; i < 20000; i++ {
		x := -745 + 1454*r.Float64()
		got := Exp(x)
		if want := expRef(x, ln2); ulps(got, want) > 1 {
			t.Fatalf("Exp(%v) = %v, correctly rounded %v", x, got, want)
		}
		if host := math.Exp(x); ulps(got, host) > 2 {
			t.Fatalf("Exp(%v) = %v, math.Exp gives %v", x, got, host)
		}
	}
}

// The bits of Exp over a fixed sweep are pinned: they are the bits of
// math's pure-Go exp, which campaigns on every host reproduce (a changed
// digest re-records LavaMD's goldens). The name dates from when it also
// pinned stats.Log.
func TestExpLogBitsPinned(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		put(Exp(-745 + 1454*r.Float64()))
		put(Exp(-r.Float64()))
	}
	if got := h.Sum64(); got != 0x52ebd31f7f20f9c7 {
		t.Fatalf("Exp digest %#x, want 0x52ebd31f7f20f9c7", got)
	}
}
