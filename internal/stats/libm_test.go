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

func TestLogSpecialCases(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)},
		{0, math.Inf(-1)},
		{math.Copysign(0, -1), math.Inf(-1)},
		{1, 0},
		{math.E, 1},
		{5e-324, -744.4400719213812},
		{9.793848960704e-312, -716.1247944825959},
	} {
		if got := Log(c.x); !sameBits(got, c.want) && ulps(got, c.want) > 1 {
			t.Errorf("Log(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	for _, x := range []float64{-1, math.Inf(-1), -5e-324, math.NaN()} {
		if got := Log(x); !math.IsNaN(got) {
			t.Errorf("Log(%v) = %v, want NaN", x, got)
		}
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

// logRef is ln y rounded once to float64: y = m·2^e and ln m =
// 2·atanh((m−1)/(m+1)), all to prec bits.
func logRef(y float64, ln2 *big.Float) float64 {
	m, e := math.Frexp(y)
	bm := new(big.Float).SetPrec(prec).SetFloat64(m)
	z := new(big.Float).SetPrec(prec).Sub(bm, big.NewFloat(1))
	z.Quo(z, new(big.Float).SetPrec(prec).Add(bm, big.NewFloat(1)))
	z2 := new(big.Float).SetPrec(prec).Mul(z, z)
	sum, pow, term := new(big.Float).SetPrec(prec), new(big.Float).SetPrec(prec).Set(z), new(big.Float).SetPrec(prec)
	for n := int64(0); n < 80; n++ {
		sum.Add(sum, term.Quo(pow, new(big.Float).SetInt64(2*n+1)))
		pow.Mul(pow, z2)
	}
	sum.Add(sum, sum)
	sum.Add(sum, new(big.Float).SetPrec(prec).Mul(ln2, new(big.Float).SetInt64(int64(e))))
	v, _ := sum.Float64()
	return v
}

// Exp and Log are within 1 ulp of the correctly rounded result over a
// sweep of their domains, subnormal Exp results and Log arguments
// included, and within 2 ulps of the host's math.Exp and math.Log. Two,
// not one: amd64's assembly exp is 2 ulps from Exp on about one argument
// in 10⁴. Log's comparison with math.Log stays normal: amd64's math.Log
// does not normalize a subnormal argument (it returns −709.09 for
// 9.79e-312, whose log is −716.12).
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
		y := math.Ldexp(0.5+0.5*r.Float64(), r.Intn(2098)-1073)
		got = Log(y)
		if want := logRef(y, ln2); ulps(got, want) > 1 {
			t.Fatalf("Log(%v) = %v, correctly rounded %v", y, got, want)
		}
		if host := math.Log(y); y >= 0x1p-1022 && ulps(got, host) > 2 {
			t.Fatalf("Log(%v) = %v, math.Log gives %v", y, got, host)
		}
	}
}

// The bits of Exp and Log over a fixed sweep are pinned: they are the
// bits of math's pure-Go exp and log, which campaigns on every host
// reproduce (a changed digest re-records LavaMD's goldens).
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
		put(Log(math.Ldexp(0.5+0.5*r.Float64(), r.Intn(2098)-1073)))
	}
	if got := h.Sum64(); got != 0xd1e609d6dafb3590 {
		t.Fatalf("Exp/Log digest %#x, want 0xd1e609d6dafb3590", got)
	}
}
