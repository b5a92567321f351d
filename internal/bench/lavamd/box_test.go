package lavamd

import (
	"fmt"
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/stats"
)

// specials are the bit patterns the box test seeds among ordinary
// positions and charges: ±0, the smallest and the largest subnormal, ±Inf,
// quiet NaNs with two payloads and signs, a signalling NaN and ±1e200.
var specials = []uint64{
	0x0000000000000000, 0x8000000000000000,
	0x0000000000000001, 0x800fffffffffffff,
	0x7ff0000000000000, 0xfff0000000000000,
	0x7ff8000000000abc, 0xfff8000000012345, 0x7ff0000000000001,
	0x7e67c6955e284d5f, 0xfe67c6955e284d5f,
}

// poison fills the forces before each call. It is a signalling NaN, which
// no arithmetic returns, so a force box leaves unwritten shows.
const poison = 0x7ff0badbadbadbad

// thresholds are the values of u2 = a2·r2 around which exp's branches and
// the kernel's range change: 0 (a particle on top of another), 2**-28
// (NearZero), 700 (the kernel's bound) and 745.13 (underflow).
var thresholds = []float64{0, 0x1p-28, 700, 745.1332191019411}

// scramble seeds the particles of l for one trial: one particle in four
// is moved to a distance from another that puts a2·r2 within a few ulps of
// a threshold, the other one put at the origin half the time so that a
// huge a2 still gives an in-range pair, and then n coordinates or charges
// become specials. Every particle is a neighbour of every other in a 2×2×2
// grid, so one NaN poisons every force; n stays small.
func scramble(l *LavaMD, a2 float64, n int, r *stats.RNG) {
	rv, qv := l.rv.Data, l.qv.Data
	for i := range qv {
		if r.Intn(4) == 0 && a2 > 0 {
			m := r.Intn(len(qv))
			if r.Intn(2) == 0 {
				rv[3*m], rv[3*m+1], rv[3*m+2] = 0, 0, 0
			}
			d := math.Sqrt(thresholds[r.Intn(len(thresholds))] / a2)
			steps := r.Intn(7) - 3
			for ; steps > 0; steps-- {
				d = math.Nextafter(d, math.Inf(1))
			}
			for ; steps < 0; steps++ {
				d = math.Nextafter(d, 0)
			}
			rv[3*i], rv[3*i+1], rv[3*i+2] = rv[3*m]+d, rv[3*m+1], rv[3*m+2]
		}
	}
	for ; n > 0; n-- {
		v := math.Float64frombits(specials[r.Intn(len(specials))])
		if e := r.Intn(len(rv) + len(qv)); e < len(rv) {
			rv[e] = v
		} else {
			qv[e-len(rv)] = v
		}
	}
}

// corruptNeighbours sets one neighbour entry in eight to −1 and, on some
// trials, one to an index out of range: just past the last box, far past
// it, or off by 2**62, which the index arithmetic wraps back into range
// when ppb is a multiple of four.
func corruptNeighbours(l *LavaMD, trial int, r *stats.RNG) {
	nn := l.nn.Data
	for e := range nn {
		if r.Intn(8) == 0 {
			nn[e] = -1
		}
	}
	e := r.Intn(len(nn))
	switch trial % 4 {
	case 1:
		nn[e] = l.boxCount()
	case 2:
		nn[e] = 1 << 40
	case 3:
		nn[e] = 1<<62 + r.Intn(l.boxCount())
	}
}

// run calls one box function on home box b and reports its panic, if any.
func run(f func(b, ppb int, a2 float64), b, ppb int, a2 float64) (msg string) {
	defer func() {
		if rec := recover(); rec != nil {
			msg = fmt.Sprint(rec)
		}
	}()
	f(b, ppb, a2)
	return ""
}

// rehome moves a buffer's values to a fresh slice off float64s into its
// backing array, so the kernel sees every 8-byte alignment mod 32.
func rehome(v []float64, off int) []float64 {
	return append(make([]float64, off, off+len(v)), v...)[off:]
}

// The box LavaMD runs (the amd64 kernel there) gives the Go box's bits,
// NaN payloads and panics included, for every ppb from 1 to 16, with the
// positions, charges and forces starting at every alignment, positions and
// charges drawn from the specials, u2 on both sides of every threshold,
// neighbour entries of −1 and out of range, home boxes out of range (as a
// corrupted boxesEnd gives), and a2 corrupted (NaN,
// negative, zero, huge, and either side of the kernel's 2**100 bound) on
// one trial in two. The forces are poisoned before each call.
func TestBoxMatchesGo(t *testing.T) {
	rng := stats.NewRNG(36)
	corrupt := []float64{math.NaN(), -0.5, 0, 1e300, math.MaxFloat64, 0x1p100, math.Nextafter(0x1p100, 0), math.Inf(1), 3.5e-8}
	for ppb := 1; ppb <= 16; ppb++ {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 8; trial++ {
				l := New(Config{NB: 2, PPB: ppb, Alpha: 0.5, Workers: 1}, uint64(100*ppb+trial))
				a2 := l.a2.Load()
				if trial%2 == 1 {
					a2 = corrupt[rng.Intn(len(corrupt))]
				}
				scramble(l, a2, trial%4, rng)
				corruptNeighbours(l, trial, rng)
				l.rv.Data, l.qv.Data = rehome(l.rv.Data, off), rehome(l.qv.Data, (off+1)%4)
				l.fv.Data = rehome(l.fv.Data, (off+2)%4)
				want := make([]float64, len(l.fv.Data))
				for b := 0; b < l.boxCount()+2; b++ {
					for i := range want {
						l.fv.Data[i] = math.Float64frombits(poison)
					}
					wantMsg := run(l.boxGo0, b, ppb, a2)
					copy(want, l.fv.Data)
					for i := range want {
						l.fv.Data[i] = math.Float64frombits(poison)
					}
					gotMsg := run(l.box, b, ppb, a2)
					if gotMsg != wantMsg {
						t.Fatalf("ppb %d, offset %d, trial %d, box %d: panic %q, Go box %q", ppb, off, trial, b, gotMsg, wantMsg)
					}
					if bench.SameBits(l.fv.Data, want) {
						continue
					}
					for i, g := range l.fv.Data {
						if gb, wb := math.Float64bits(g), math.Float64bits(want[i]); gb != wb {
							t.Fatalf("ppb %d, offset %d, trial %d, a2 %v, box %d, particle %d, component %d: got %#016x (%v), Go box %#016x (%v)",
								ppb, off, trial, a2, b, i/4, i%4, gb, g, wb, want[i])
						}
					}
				}
			}
		}
	}
}

// With a2 near the largest float64, 2·a2 overflows, so a pair in the
// kernel's u2 range can still have a NaN force term (a zero charge times an
// infinite fs). The Go pair returns that NaN where the accumulator already
// holds another; the kernel would keep the accumulator's. box leaves such
// an a2 to boxGo. Here every charge is a NaN, which every pair's terms
// carry, but that of the last particle of box 0's last neighbour, which is
// uncharged and at u2 = 1 from both home particles at the origin.
func TestBoxMatchesGoOverflowingForce(t *testing.T) {
	l := New(Config{NB: 2, PPB: 2, Alpha: 0.5, Workers: 1}, 1)
	a2 := math.MaxFloat64
	for i := range l.qv.Data {
		l.qv.Data[i] = math.Float64frombits(0x7ff8000000000abc)
	}
	last := len(l.qv.Data) - 1
	l.qv.Data[last] = 0
	copy(l.rv.Data, []float64{0, 0, 0, 0, 0, 0})
	copy(l.rv.Data[3*last:], []float64{math.Sqrt(1 / a2), 0, 0})
	l.boxGo(0, 0, 2, a2)
	want := append([]float64(nil), l.fv.Data[:8]...)
	l.box(0, 2, a2)
	for i, g := range l.fv.Data[:8] {
		if gb, wb := math.Float64bits(g), math.Float64bits(want[i]); gb != wb {
			t.Fatalf("force %d: got %#016x, Go box %#016x", i, gb, wb)
		}
	}
}

// boxGo0 is boxGo over the whole box, with box's signature.
func (l *LavaMD) boxGo0(b, ppb int, a2 float64) { l.boxGo(b, 0, ppb, a2) }

// A golden run of the campaign-scale grid allocates no more than it did
// with the Go box (3 times). Kernel arguments that escaped would add one
// allocation per pair of particles and neighbour box.
func TestLavaMDGoldenRunAllocs(t *testing.T) {
	r, err := bench.NewRunner(New(DefaultConfig(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() { r.RunGolden() }); a > 3 {
		t.Fatalf("a golden run allocates %v times, want at most 3", a)
	}
}

// BenchmarkBox computes every box of the campaign-scale grid once per
// iteration with the box LavaMD runs (kernel: the amd64 kernel there) and
// with the Go box, and reports the time per pair of particles.
func BenchmarkBox(b *testing.B) {
	cfg := DefaultConfig()
	l := New(cfg, 1)
	l.Reset()
	a2 := l.a2.Load()
	pairs := 0
	for _, nb := range l.nn.Data {
		if nb >= 0 {
			pairs += cfg.PPB * cfg.PPB
		}
	}
	for _, path := range []struct {
		name string
		box  func(b, ppb int, a2 float64)
	}{{"kernel", l.box}, {"go", l.boxGo0}} {
		b.Run(path.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for bx := 0; bx < l.boxCount(); bx++ {
					path.box(bx, cfg.PPB, a2)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		})
	}
}
