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
		if got := c.d.Rank(); got != c.rank {
			t.Errorf("Rank(%v) = %d, want %d", c.d, got, c.rank)
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

func TestIntCell(t *testing.T) {
	c := NewInt("i", "control", 5)
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
}

func TestIntCellCorrupt(t *testing.T) {
	r := stats.NewRNG(1)
	c := NewInt("i", "control", 100)
	rep := c.Corrupt(r, fault.Zero)
	if c.Load() != 0 {
		t.Fatalf("Zero left %d", c.Load())
	}
	if rep.Elem != -1 || rep.Site != "i" || rep.Region != "control" {
		t.Fatalf("report: %+v", rep)
	}
	c.Store(1)
	rep = c.Corrupt(r, fault.Single)
	if !rep.Changed() || c.Load() == 1 {
		t.Fatal("Single did not change the cell")
	}
}

func TestF64F32Cells(t *testing.T) {
	r := stats.NewRNG(2)
	f := NewF64("amb", "constant", 80.0)
	if f.Load() != 80 {
		t.Fatal("f64 load")
	}
	f.Store(81)
	rep := f.Corrupt(r, fault.Zero)
	if f.Load() != 0 || !rep.Changed() {
		t.Fatal("f64 zero corrupt")
	}
	g := NewF32("step", "constant", 0.5)
	g.Corrupt(r, fault.Single)
	if g.Load() == 0.5 {
		t.Fatal("f32 single corrupt no-op")
	}
	if g.Kind() != KindF32 || g.SizeBytes() != 4 {
		t.Fatal("f32 metadata")
	}
}

func TestBuffersCorruptElem(t *testing.T) {
	r := stats.NewRNG(3)
	b := NewF64s("A", "matrix", Dims2(4, 4))
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
}

func TestBufferAtSet(t *testing.T) {
	b := NewF64s("A", "matrix", Dims2(3, 2))
	b.Set(2, 1, 0, 9)
	if b.At(2, 1, 0) != 9 || b.Data[1*3+2] != 9 {
		t.Fatal("At/Set row-major mapping wrong")
	}
	f := NewF32s("B", "matrix", Dims2(3, 2))
	f.Set(0, 1, 0, 2)
	if f.At(0, 1, 0) != 2 {
		t.Fatal("f32 At/Set")
	}
	i32 := NewI32s("C", "matrix", Dims2(3, 2))
	i32.Set(1, 0, 0, -4)
	if i32.At(1, 0, 0) != -4 {
		t.Fatal("i32 At/Set")
	}
}

func TestWrapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WrapF64s accepted mismatched shape")
		}
	}()
	WrapF64s("x", "matrix", make([]float64, 3), Dims2(2, 2))
}

func TestWrapIntsShared(t *testing.T) {
	data := []int{1, 2, 3}
	b := WrapInts("idx", "mesh.sort", data, Dims1(3))
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
	b := NewI32s("M", "matrix", Dims1(16))
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
	g.Global().Register(NewInt("n", "control", 10))
	if g.Depth() != 1 || len(g.Live()) != 1 {
		t.Fatal("global frame")
	}
	f := g.Push("kernel")
	f.Register(NewF64("acc", "control", 0))
	if g.Depth() != 2 || len(g.Live()) != 2 {
		t.Fatal("pushed frame not visible")
	}
	g.Pop()
	if len(g.Live()) != 1 {
		t.Fatal("pop did not hide frame sites")
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
	g.Global().Register(NewInt("n", "control", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate site name")
		}
	}()
	g.Global().Register(NewInt("n", "control", 2))
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
	big := NewF64s("big", "matrix", Dims1(1000)) // 8000 bytes
	small := NewInt("i", "control", 0)           // 8 bytes
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
	big := NewF64s("big", "matrix", Dims1(1000))
	small := NewInt("i", "control", 0)
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
	g.Global().Register(NewInt("a", "control", 0), NewInt("b", "control", 0), NewInt("c", "control", 0))
	f := g.Push("leaf")
	leaf := NewInt("z", "control", 0)
	f.Register(leaf)
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

func TestRegionBytes(t *testing.T) {
	g := NewRegistry()
	g.Global().Register(
		NewF64s("A", "matrix", Dims1(10)),
		NewF64s("B", "matrix", Dims1(10)),
		NewInt("i", "control", 0),
	)
	rb := g.RegionBytes()
	if rb["matrix"] != 160 || rb["control"] != 8 {
		t.Fatalf("region bytes: %v", rb)
	}
	if g.TotalBytes() != 168 {
		t.Fatalf("total bytes: %d", g.TotalBytes())
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
