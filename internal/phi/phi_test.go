package phi

import (
	"math"
	"testing"

	"phirel/internal/stats"
)

func TestKNCInventory(t *testing.T) {
	d := NewKNC3120A()
	if d.Cores != 57 || d.ThreadsPerCore != 4 || d.VectorBits != 512 {
		t.Fatalf("KNC geometry wrong: %+v", d)
	}
	var l1, l2, vreg float64
	for _, r := range d.Resources {
		switch r.Name {
		case "L1":
			l1 = r.Bits
		case "L2":
			l2 = r.Bits
		case "vector-regfile":
			vreg = r.Bits
		}
	}
	if l1 != 57*64*8*1024 {
		t.Fatalf("L1 bits %v", l1)
	}
	if l2 != 57*512*8*1024 {
		t.Fatalf("L2 bits %v", l2)
	}
	if vreg != 57*32*512*4 {
		t.Fatalf("vector regfile bits %v", vreg)
	}
	// The protected SRAM population must dwarf the unprotected state —
	// that is what makes ECC-corrected the dominant raw-fault outcome.
	var prot, unprot float64
	for _, r := range d.Resources {
		if r.ECC == SECDED {
			prot += r.Bits
		} else {
			unprot += r.Bits
		}
	}
	if prot < 10*unprot {
		t.Fatalf("protected %v vs unprotected %v: SRAM should dominate", prot, unprot)
	}
}

func TestProfilesValid(t *testing.T) {
	for name := range profiles {
		p, err := ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []Class{SRAM, VectorRegfile, Pipeline, Scheduler, Interconnect} {
			if p.Occupancy(c) <= 0 {
				t.Fatalf("profile %s missing class %v", name, c)
			}
		}
	}
	if _, err := ProfileFor("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestProfileCharacterisation(t *testing.T) {
	dg, _ := ProfileFor("DGEMM")
	hs, _ := ProfileFor("HotSpot")
	// Paper §4.2: compute-bound DGEMM stresses vectors; memory-bound
	// HotSpot stresses caches/scheduler.
	if dg.Occupancy(VectorRegfile) <= hs.Occupancy(VectorRegfile) {
		t.Fatal("DGEMM should out-occupy HotSpot on the vector regfile")
	}
	if hs.Occupancy(SRAM) <= dg.Occupancy(SRAM) {
		t.Fatal("HotSpot should out-occupy DGEMM on SRAM")
	}
	if hs.Occupancy(Scheduler) <= dg.Occupancy(Scheduler) {
		t.Fatal("HotSpot should out-occupy DGEMM on the scheduler")
	}
}

func TestSampleFaultDistribution(t *testing.T) {
	d := NewKNC3120A()
	p, _ := ProfileFor("DGEMM")
	r := stats.NewRNG(1)
	var corrected, mca, arch int
	byClass := map[Class]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		f := d.SampleFault(r, p)
		switch f.Result {
		case Corrected:
			corrected++
		case DetectedMCA:
			mca++
		case SilentArch:
			arch++
		}
		byClass[f.Resource.Class]++
	}
	if corrected < n/2 {
		t.Fatalf("ECC corrected only %d/%d; SRAM must dominate raw faults", corrected, n)
	}
	if mca == 0 || arch == 0 {
		t.Fatalf("mca=%d arch=%d; both paths must occur", mca, arch)
	}
	// MCA fraction ≈ SRAM share × PDoubleBit.
	sramShare := float64(byClass[SRAM]) / n
	wantMCA := sramShare * d.PDoubleBit
	gotMCA := float64(mca) / n
	if math.Abs(gotMCA-wantMCA) > 0.2*wantMCA+0.002 {
		t.Fatalf("MCA rate %v, want ≈%v", gotMCA, wantMCA)
	}
}

func TestSampleFaultOccupancyEffect(t *testing.T) {
	d := NewKNC3120A()
	r := stats.NewRNG(2)
	heavy := Profile{Name: "x", Occ: map[Class]float64{
		SRAM: 0.01, VectorRegfile: 1.0, Pipeline: 0.01, Scheduler: 0.01, Interconnect: 0.01,
	}}
	vreg := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if d.SampleFault(r, heavy).Resource.Class == VectorRegfile {
			vreg++
		}
	}
	if float64(vreg)/n < 0.4 {
		t.Fatalf("vector-heavy profile picked regfile only %d/%d", vreg, n)
	}
}

func TestRawFITPhysicallyPlausible(t *testing.T) {
	d := NewKNC3120A()
	for name, p := range profiles {
		fit := d.RawFaultRate(p, 13.0) * 1e9
		// Raw upset rates for a ~30 MB-SRAM 22nm device at sea level are
		// in the thousands of FIT; outcome FITs are far lower after ECC.
		if fit < 500 || fit > 50000 {
			t.Fatalf("%s raw FIT %v implausible", name, fit)
		}
	}
}

func TestClassAndResultStrings(t *testing.T) {
	for _, c := range []Class{SRAM, VectorRegfile, Pipeline, Scheduler, Interconnect} {
		if c.String() == "" {
			t.Fatal("class name")
		}
	}
	for _, h := range []HWResult{Corrected, DetectedMCA, SilentArch} {
		if h.String() == "" {
			t.Fatal("result name")
		}
	}
}

// TestArrheniusClosedForm holds ArrheniusFactor to the closed form of the
// reliability literature it cites (SNIPPETS.md snippet 1: E_a = 0.379 eV,
// T_ref = 300 K), AF = exp(E_a/k_B · (1/T_ref − 1/T)), with k_B derived here
// from the SI's exact constants instead of taken from the package.
func TestArrheniusClosedForm(t *testing.T) {
	const (
		ea     = 0.379           // eV
		tRef   = 300.0           // K
		kJoule = 1.380649e-23    // J/K, exact since the 2019 SI
		charge = 1.602176634e-19 // C, exact: one eV in joules
	)
	kB := kJoule / charge // eV/K
	for _, temp := range []float64{250, 300, 330, 358.15, 400} {
		want := math.Exp(ea / kB * (1/tRef - 1/temp))
		got := ArrheniusFactor(temp, tRef, ea)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("AF(%g K) = %.12g, the closed form gives %.12g", temp, got, want)
		}
		if dev := NewKNC3120A().AccelerationFactor(temp); math.Abs(dev-want) > 1e-9*want {
			t.Errorf("KNC3120A at %g K accelerates by %.12g, the closed form gives %.12g", temp, dev, want)
		}
	}
	// The figure the monitor documentation quotes for 330 K.
	if af := ArrheniusFactor(330, tRef, ea); math.Abs(af-3.79) > 0.005 {
		t.Errorf("AF(330 K) = %.4f, want 3.79", af)
	}
}
