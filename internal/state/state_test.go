package state

import (
	"testing"
	"testing/quick"

	"phirel/internal/fault"
	"phirel/internal/stats"
)

func TestDimsRoundTripQuick(t *testing.T) {
	f := func(xr, yr, zr uint8, ir uint16) bool {
		d := Dims{X: int(xr%16) + 1, Y: int(yr%16) + 1, Z: int(zr%4) + 1}
		i := int(ir) % d.Len()
		x, y, z := d.Coord(i)
		if x < 0 || x >= d.X || y < 0 || y >= d.Y || z < 0 || z >= d.Z {
			return false
		}
		return d.Index(x, y, z) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDimsRank: the constructors give every dimension they are not passed
// extent 1, so a shape's rank is its count of extents above 1.
func TestDimsRank(t *testing.T) {
	cases := []struct {
		d    Dims
		rank int
	}{
		{Dims1(1), 0},
		{Dims1(10), 1},
		{Dims2(10, 10), 2},
		{Dims2(10, 1), 1},
		{Dims3(4, 4, 4), 3},
		{Dims3(4, 1, 4), 2},
	}
	for _, c := range cases {
		rank := 0
		for _, n := range []int{c.d.X, c.d.Y, c.d.Z} {
			if n < 1 {
				t.Errorf("%v has an extent below 1", c.d)
			}
			if n > 1 {
				rank++
			}
		}
		if rank != c.rank {
			t.Errorf("rank of %v = %d, want %d", c.d, rank, c.rank)
		}
	}
}

func TestKindBytes(t *testing.T) {
	if KindF64.Bytes() != 8 || KindI64.Bytes() != 8 || KindF32.Bytes() != 4 || KindI32.Bytes() != 4 {
		t.Fatal("kind byte widths wrong")
	}
	for _, k := range []Kind{KindF64, KindF32, KindI64, KindI32} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

// corruptInt is fault.CorruptInt64 over int, the call Cell[int] and Buf[int]
// must match.
func corruptInt(r *stats.RNG, m fault.Model, v int) (int, fault.Corruption) {
	nv, c := fault.CorruptInt64(r, m, int64(v))
	return int(nv), c
}

// sameValue reports whether a and b are equal or both NaN.
func sameValue[T Elem](a, b T) bool { return a == b || a != a && b != b }

// cellCase checks Cell[T]'s Load/Store/Add and metadata, and that, under
// every fault model and several seeds, Corrupt and a fired Arm report
// exactly what call reports on an RNG of the same seed and leave the value
// it returns.
func cellCase[T Elem](v T, kind Kind, width int, call func(*stats.RNG, fault.Model, T) (T, fault.Corruption)) func(*testing.T) {
	return func(t *testing.T) {
		c := NewCell("c", "control", v)
		if c.Load() != v || c.Add(v) != v+v || c.Load() != v+v {
			t.Fatal("Load/Add")
		}
		if c.Name() != "c" || c.Region() != "control" || c.Kind() != kind || c.SizeBytes() != width {
			t.Fatalf("metadata: %q %q %v %d", c.Name(), c.Region(), c.Kind(), c.SizeBytes())
		}
		for _, m := range fault.Models {
			for seed := uint64(1); seed <= 8; seed++ {
				wantV, cor := call(stats.NewRNG(seed), m, v)
				want := Report{Site: "c", Region: "control", Kind: kind, Elem: -1, Corruption: cor}
				c.Store(v)
				if rep := c.Corrupt(stats.NewRNG(seed), m); rep != want || !sameValue(c.Load(), wantV) {
					t.Fatalf("%v seed %d: Corrupt gave %+v and %v, the fault call %+v and %v", m, seed, rep, c.Load(), want, wantV)
				}
				c.Store(v)
				d := c.Arm(1, m, stats.NewRNG(seed))
				if c.Load() != v || d.Fired {
					t.Fatalf("%v seed %d: fired on the first load at delay 1", m, seed)
				}
				if got := c.Load(); !d.Fired || d.Report != want || !sameValue(got, wantV) {
					t.Fatalf("%v seed %d: Arm fired %v with %+v and %v, the fault call %+v and %v", m, seed, d.Fired, d.Report, got, want, wantV)
				}
			}
		}
	}
}

// bufCase checks Buf[T]'s metadata, and that, under every fault model and
// several seeds, Corrupt and CorruptElem report exactly what call reports on
// an RNG of the same seed (Corrupt after drawing the element from it),
// leave the value it returns in that element and touch no other.
func bufCase[T Elem](v T, kind Kind, width int, call func(*stats.RNG, fault.Model, T) (T, fault.Corruption)) func(*testing.T) {
	return func(t *testing.T) {
		b := NewBuf[T]("b", "matrix", Dims2(3, 2))
		if b.Name() != "b" || b.Region() != "matrix" || b.Kind() != kind || b.SizeBytes() != 6*width || b.Len() != 6 {
			t.Fatalf("metadata: %q %q %v %d %d", b.Name(), b.Region(), b.Kind(), b.SizeBytes(), b.Len())
		}
		check := func(op string, m fault.Model, rep Report, r *stats.RNG, elem int) {
			t.Helper()
			wantV, cor := call(r, m, v)
			want := Report{Site: "b", Region: "matrix", Kind: kind, Elem: elem, Corruption: cor}
			if rep != want || !sameValue(b.Data[elem], wantV) {
				t.Fatalf("%s %v: gave %+v and %v, the fault call %+v and %v", op, m, rep, b.Data[elem], want, wantV)
			}
			for i, x := range b.Data {
				if i != elem && x != v {
					t.Fatalf("%s %v: element %d collaterally changed", op, m, i)
				}
			}
		}
		for _, m := range fault.Models {
			for seed := uint64(1); seed <= 8; seed++ {
				for i := range b.Data {
					b.Data[i] = v
				}
				rep := b.Corrupt(stats.NewRNG(seed), m)
				r := stats.NewRNG(seed)
				check("Corrupt", m, rep, r, r.Intn(b.Len()))
				b.Data[rep.Elem] = v
				check("CorruptElem", m, b.CorruptElem(stats.NewRNG(seed), m, 4), stats.NewRNG(seed), 4)
			}
		}
	}
}

// TestIntCell checks Cell[int]'s Load/Store/Add and metadata, and that its
// Corrupt and a fired Arm match fault.CorruptInt64.
func TestIntCell(t *testing.T) {
	c := NewCell("i", "control", 5)
	if c.Load() != 5 {
		t.Fatal("load")
	}
	c.Store(7)
	if c.Load() != 7 {
		t.Fatal("store")
	}
	if c.Add(3) != 10 || c.Load() != 10 {
		t.Fatal("add")
	}
	if c.Name() != "i" || c.Region() != "control" || c.SizeBytes() != 8 || c.Kind() != KindI64 {
		t.Fatal("metadata")
	}
	cellCase(100, KindI64, 8, corruptInt)(t)
}

func TestIntCellCorrupt(t *testing.T) {
	r := stats.NewRNG(1)
	c := NewCell("i", "control", 100)
	rep := c.Corrupt(r, fault.Zero)
	if c.Load() != 0 {
		t.Fatalf("Zero left %d", c.Load())
	}
	if rep.Elem != -1 || rep.Site != "i" || rep.Region != "control" {
		t.Fatalf("report: %+v", rep)
	}
	c.Store(1)
	rep = c.Corrupt(r, fault.Single)
	if rep.Before == rep.After || c.Load() == 1 {
		t.Fatal("Single did not change the cell")
	}
}

// TestF64F32Cells checks the float cells by hand, then holds Cell[float64]
// and Cell[float32] to their element type's fault call.
func TestF64F32Cells(t *testing.T) {
	r := stats.NewRNG(2)
	f := NewCell[float64]("amb", "constant", 80.0)
	if f.Load() != 80 {
		t.Fatal("f64 load")
	}
	f.Store(81)
	rep := f.Corrupt(r, fault.Zero)
	if f.Load() != 0 || rep.Before == rep.After {
		t.Fatal("f64 zero corrupt")
	}
	g := NewCell[float32]("step", "constant", 0.5)
	g.Corrupt(r, fault.Single)
	if g.Load() == 0.5 {
		t.Fatal("f32 single corrupt no-op")
	}
	if g.Kind() != KindF32 || g.SizeBytes() != 4 {
		t.Fatal("f32 metadata")
	}
	t.Run("Cell[float64]", cellCase(80.0, KindF64, 8, fault.CorruptFloat64))
	t.Run("Cell[float32]", cellCase(0.5, KindF32, 4, fault.CorruptFloat32))
}

// TestBuffersCorruptElem checks CorruptElem by hand, then holds the four Buf
// instantiations the kernels use to their element type's fault call, which
// pins the type switch that maps each to its Kind and corruption.
func TestBuffersCorruptElem(t *testing.T) {
	r := stats.NewRNG(3)
	b := NewBuf[float64]("A", "matrix", Dims2(4, 4))
	for i := range b.Data {
		b.Data[i] = 1
	}
	rep := b.CorruptElem(r, fault.Zero, 5)
	if b.Data[5] != 0 || rep.Elem != 5 {
		t.Fatalf("corrupt elem: %+v", rep)
	}
	for i, v := range b.Data {
		if i != 5 && v != 1 {
			t.Fatalf("element %d collaterally changed", i)
		}
	}
	t.Run("Buf[float64]", bufCase(1.5, KindF64, 8, fault.CorruptFloat64))
	t.Run("Buf[float32]", bufCase(1.5, KindF32, 4, fault.CorruptFloat32))
	t.Run("Buf[int32]", bufCase(-7, KindI32, 4, fault.CorruptInt32))
	t.Run("Buf[int]", bufCase(42, KindI64, 8, corruptInt))
}

func TestBufferAtSet(t *testing.T) {
	b := NewBuf[float64]("A", "matrix", Dims2(3, 2))
	b.Set(2, 1, 0, 9)
	if b.At(2, 1, 0) != 9 || b.Data[1*3+2] != 9 {
		t.Fatal("At/Set row-major mapping wrong")
	}
	f := NewBuf[float32]("B", "matrix", Dims2(3, 2))
	f.Set(0, 1, 0, 2)
	if f.At(0, 1, 0) != 2 {
		t.Fatal("f32 At/Set")
	}
	i32 := NewBuf[int32]("C", "matrix", Dims2(3, 2))
	i32.Set(1, 0, 0, -4)
	if i32.At(1, 0, 0) != -4 {
		t.Fatal("i32 At/Set")
	}
}

func TestWrapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WrapBuf accepted a mismatched shape")
		}
	}()
	WrapBuf("x", "matrix", make([]float64, 3), Dims2(2, 2))
}

func TestWrapIntsShared(t *testing.T) {
	data := []int{1, 2, 3}
	b := WrapBuf("idx", "mesh.sort", data, Dims1(3))
	r := stats.NewRNG(4)
	b.CorruptElem(r, fault.Zero, 1)
	if data[1] != 0 {
		t.Fatal("wrapped buffer does not alias the slice")
	}
	if b.SizeBytes() != 24 || b.Len() != 3 {
		t.Fatal("ints metadata")
	}
}

func TestBufferCorruptUniform(t *testing.T) {
	r := stats.NewRNG(5)
	b := NewBuf[int32]("M", "matrix", Dims1(16))
	hits := make([]int, 16)
	for i := 0; i < 4000; i++ {
		rep := b.Corrupt(r, fault.Single)
		hits[rep.Elem]++
		b.Data[rep.Elem] = 0
	}
	for i, h := range hits {
		if h < 150 || h > 350 {
			t.Fatalf("element %d hit %d times, expected ~250", i, h)
		}
	}
}

func TestRegistryFrames(t *testing.T) {
	g := NewRegistry()
	g.Global().Register(NewCell("n", "control", 10))
	if len(g.Frames()) != 1 || len(g.Live()) != 1 {
		t.Fatal("global frame")
	}
	f := &Frame{Name: "kernel"}
	f.Register(NewCell[float64]("acc", "control", 0))
	for range 2 { // a phase re-enters the frame it entered before
		g.Push(f)
		if len(g.Frames()) != 2 || len(g.Live()) != 2 {
			t.Fatal("pushed frame not visible")
		}
		g.Pop()
		if len(g.Live()) != 1 {
			t.Fatal("pop did not hide frame sites")
		}
	}
}

func TestRegistryPopGlobalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegistry().Pop()
}

func TestRegistryDuplicatePanics(t *testing.T) {
	g := NewRegistry()
	g.Global().Register(NewCell("n", "control", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate site name")
		}
	}()
	g.Global().Register(NewCell("n", "control", 2))
}

// pick is PickIn over the registry's live stack, as the site it names.
func pick(g *Registry, r *stats.RNG, p Policy) Site {
	f, s := PickIn(g.Frames(), r, p)
	if f < 0 {
		return nil
	}
	return g.Frames()[f].Sites()[s]
}

func TestRegistryPickByBytesWeighting(t *testing.T) {
	g := NewRegistry()
	big := NewBuf[float64]("big", "matrix", Dims1(1000)) // 8000 bytes
	small := NewCell("i", "control", 0)                  // 8 bytes
	g.Global().Register(big, small)
	r := stats.NewRNG(6)
	bigHits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if pick(g, r, ByBytes) == Site(big) {
			bigHits++
		}
	}
	frac := float64(bigHits) / n
	if frac < 0.985 {
		t.Fatalf("ByBytes picked the 1000x larger site only %.3f of the time", frac)
	}
}

func TestRegistryPickByVariableUniform(t *testing.T) {
	g := NewRegistry()
	big := NewBuf[float64]("big", "matrix", Dims1(1000))
	small := NewCell("i", "control", 0)
	g.Global().Register(big, small)
	r := stats.NewRNG(7)
	smallHits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if pick(g, r, ByVariable) == Site(small) {
			smallHits++
		}
	}
	frac := float64(smallHits) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("ByVariable picked scalar %.3f of the time, want ~0.5", frac)
	}
}

func TestRegistryPickByFrame(t *testing.T) {
	g := NewRegistry()
	g.Global().Register(NewCell("a", "control", 0), NewCell("b", "control", 0), NewCell("c", "control", 0))
	f := &Frame{Name: "leaf"}
	leaf := NewCell("z", "control", 0)
	f.Register(leaf)
	g.Push(f)
	r := stats.NewRNG(8)
	leafHits := 0
	const n = 6000
	for i := 0; i < n; i++ {
		if pick(g, r, ByFrameThenVariable) == Site(leaf) {
			leafHits++
		}
	}
	// Frame picked with p=1/2, then z with p=1 → ~0.5 (vs 0.25 by-variable).
	frac := float64(leafHits) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("ByFrameThenVariable leaf rate %.3f, want ~0.5", frac)
	}
}

func TestRegistryPickEmpty(t *testing.T) {
	g := NewRegistry()
	r := stats.NewRNG(9)
	for _, p := range []Policy{ByBytes, ByVariable, ByFrameThenVariable} {
		if pick(g, r, p) != nil {
			t.Fatalf("policy %v picked from empty registry", p)
		}
	}
}

// TestRegionBytes: the live sites' sizes, summed per region, are each
// region's footprint in bytes.
func TestRegionBytes(t *testing.T) {
	g := NewRegistry()
	g.Global().Register(
		NewBuf[float64]("A", "matrix", Dims1(10)),
		NewBuf[float64]("B", "matrix", Dims1(10)),
		NewCell("i", "control", 0),
	)
	rb := map[Region]int{}
	for _, s := range g.Live() {
		rb[s.Region()] += s.SizeBytes()
	}
	if rb["matrix"] != 160 || rb["control"] != 8 {
		t.Fatalf("region bytes: %v", rb)
	}
}

func TestPolicyStringParse(t *testing.T) {
	for _, p := range []Policy{ByBytes, ByVariable, ByFrameThenVariable} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

func TestParsePolicies(t *testing.T) {
	got, err := ParsePolicies(" by-frame , by-bytes ")
	if err != nil || len(got) != 2 || got[0] != ByFrameThenVariable || got[1] != ByBytes {
		t.Fatalf("ParsePolicies = %v, %v", got, err)
	}
	if got, err := ParsePolicies(""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	if _, err := ParsePolicies("by-frame,nope"); err == nil {
		t.Fatal("ParsePolicies accepted garbage")
	}
}
