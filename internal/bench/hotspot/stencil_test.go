package hotspot

import (
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/stats"
)

// specials are the bit patterns the row test seeds among ordinary
// temperatures: quiet NaNs with two payloads and signs, a signalling NaN,
// ±Inf, the smallest and the largest subnormal, −0 and values whose
// doubling overflows.
var specials = []uint32{
	0x7fc00001, 0xffc12345, 0x7f800001,
	0x7f800000, 0xff800000,
	0x00000001, 0x807fffff,
	0x80000000,
	0x7e61bcca, 0xfe61bcca, // ±3e38
}

// poison fills the rows under test before each call. It is a signalling
// NaN, which no arithmetic returns, so a column the row leaves unwritten
// shows.
const poison = 0x7fbadbad

// fill sets v to ordinary temperatures with one value in four drawn from
// specials.
func fill(v []float32, r *stats.RNG) []float32 {
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = math.Float32frombits(specials[r.Intn(len(specials))])
		} else {
			v[i] = float32(70 + 20*r.Float64())
		}
	}
	return v
}

// rowOf is row r of a grid cols wide.
func rowOf(g []float32, r, cols int) []float32 { return g[r*cols : (r+1)*cols] }

// The row HotSpot runs (the amd64 kernel there) gives the Go row's bits,
// NaN payloads included, for every width from 3 to 72 columns, on every
// row of the grid, the clamped top and bottom ones included, with the grid,
// the power map and the written row starting at every alignment. One set
// of constants in four is drawn like the grid's values, as a corrupted
// constant cell would be.
func TestSweepRowMatchesGo(t *testing.T) {
	rng := stats.NewRNG(34)
	const rows = 4
	for cols := 3; cols <= 72; cols++ {
		h := &HotSpot{cfg: Config{Rows: rows, Cols: cols}}
		want := make([]float32, cols)
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 4; trial++ {
				s := fill(make([]float32, off+rows*cols)[off:], rng)
				p := fill(make([]float32, 3-off+rows*cols)[3-off:], rng)
				got := make([]float32, (off+1)%4+cols)[(off+1)%4:]
				k := []float32{cx0, cy0, cz0, cp0, amb0}
				if trial == 3 {
					fill(k, rng)
				}
				for r := 0; r < rows; r++ {
					for i := range got {
						got[i] = math.Float32frombits(poison)
					}
					h.sweepRow(s, got, p, r, k[0], k[1], k[2], k[3], k[4])
					stencilRowGo(want, rowOf(s, r, cols), rowOf(s, max(r-1, 0), cols), rowOf(s, min(r+1, rows-1), cols),
						rowOf(p, r, cols), k[0], k[1], k[2], k[3], k[4])
					if bench.SameBits(got, want) {
						continue
					}
					for c := range got {
						if g, w := math.Float32bits(got[c]), math.Float32bits(want[c]); g != w {
							t.Fatalf("%d columns, offset %d, row %d, column %d: got %#08x (%v), Go row %#08x (%v)",
								cols, off, r, c, g, got[c], w, want[c])
						}
					}
				}
			}
		}
	}
}

// A golden run of the campaign-scale grid allocates no more than it did
// with the Go row (3 times). Row arguments that escaped would add one
// allocation a row, 16 384 a run.
func TestHotSpotGoldenRunAllocs(t *testing.T) {
	r, err := bench.NewRunner(New(DefaultConfig(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() { r.RunGolden() }); a > 3 {
		t.Fatalf("a golden run allocates %v times, want at most 3", a)
	}
}

// BenchmarkSweepRow sweeps the campaign-scale grid once per iteration with
// the row HotSpot runs (kernel: the amd64 kernel there) and with the Go row,
// and reports the time per cell.
func BenchmarkSweepRow(b *testing.B) {
	cfg := DefaultConfig()
	h := New(cfg, 1)
	h.Reset()
	s, d, p, cols := h.tA.Data, h.tB.Data, h.power.Data, cfg.Cols
	for _, path := range []struct {
		name string
		row  func(d, s, n, so, p []float32, cx, cy, cz, cp, amb float32)
	}{{"kernel", stencilRow}, {"go", stencilRowGo}} {
		b.Run(path.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < cfg.Rows; r++ {
					path.row(rowOf(d, r, cols), rowOf(s, r, cols), rowOf(s, max(r-1, 0), cols), rowOf(s, min(r+1, cfg.Rows-1), cols),
						rowOf(p, r, cols), cx0, cy0, cz0, cp0, amb0)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Rows*cols), "ns/cell")
		})
	}
}
