package mitigation

import (
	"math"
	"testing"
	"testing/quick"

	"phirel/internal/core"
	"phirel/internal/state"
	"phirel/internal/stats"
)

func randMatrix(r *stats.RNG, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = 2*r.Float64() - 1
	}
	return m
}

func TestABFTCleanMatrixOK(t *testing.T) {
	r := stats.NewRNG(1)
	m := NewABFT(randMatrix(r, 8), 8)
	if v := m.Check(1e-9); v != OK {
		t.Fatalf("clean matrix verdict %v", v)
	}
}

func TestABFTSingleErrorCorrected(t *testing.T) {
	r := stats.NewRNG(2)
	for trial := 0; trial < 50; trial++ {
		data := randMatrix(r, 8)
		m := NewABFT(data, 8)
		idx := r.Intn(64)
		orig := m.Data[idx]
		m.Data[idx] += 5 + r.Float64()
		if v := m.Check(1e-9); v != Corrected {
			t.Fatalf("verdict %v for single error", v)
		}
		if math.Abs(m.Data[idx]-orig) > 1e-9 {
			t.Fatalf("correction wrong: %v want %v", m.Data[idx], orig)
		}
		if v := m.Check(1e-9); v != OK {
			t.Fatal("matrix not clean after correction")
		}
	}
}

// Property: any single corruption anywhere is corrected exactly.
func TestABFTSingleCorrectionQuick(t *testing.T) {
	r := stats.NewRNG(3)
	f := func(idxRaw uint16, deltaRaw int8) bool {
		if deltaRaw == 0 {
			return true
		}
		n := 6
		m := NewABFT(randMatrix(r, n), n)
		idx := int(idxRaw) % (n * n)
		orig := m.Data[idx]
		m.Data[idx] += float64(deltaRaw)
		return m.Check(1e-9) == Corrected && math.Abs(m.Data[idx]-orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestABFTLineErrorDetected(t *testing.T) {
	r := stats.NewRNG(4)
	m := NewABFT(randMatrix(r, 8), 8)
	for j := 0; j < 5; j++ {
		m.Data[3*8+j] += 1 // corrupt part of row 3
	}
	if v := m.Check(1e-9); v != Detected {
		t.Fatalf("line error verdict %v", v)
	}
}

func TestABFTNaNDetected(t *testing.T) {
	r := stats.NewRNG(5)
	m := NewABFT(randMatrix(r, 8), 8)
	m.Data[9] = math.NaN()
	if v := m.Check(1e-9); v == OK {
		t.Fatal("NaN passed verification")
	}
}

func TestABFTMatMul(t *testing.T) {
	r := stats.NewRNG(6)
	n := 8
	a, b := randMatrix(r, n), randMatrix(r, n)
	m := ABFTMatMul(a, b, n)
	if v := m.Check(1e-9); v != OK {
		t.Fatalf("fresh product verdict %v", v)
	}
	// Sanity: element (0,0) equals the dot product.
	dot := 0.0
	for k := 0; k < n; k++ {
		dot += a[k] * b[k*n]
	}
	if math.Abs(m.Data[0]-dot) > 1e-9 {
		t.Fatal("product wrong")
	}
}

func TestSelectivePlan(t *testing.T) {
	res := &core.CampaignResult{
		ByRegion: map[state.Region]core.OutcomeCounts{
			"control": {Masked: 100, SDC: 150, DUECrash: 250}, // 500 inj, 80% harmful
			"matrix":  {Masked: 200, SDC: 250, DUECrash: 50},  // 500 inj, 60% harmful
		},
	}
	res.Outcomes = core.OutcomeCounts{Masked: 300, SDC: 400, DUECrash: 300}
	plan := SelectivePlan(res, 0.25, 10)
	if len(plan.Entries) == 0 {
		t.Fatal("empty plan")
	}
	if plan.TotalOverhead > 0.25+1e-9 {
		t.Fatalf("budget exceeded: %v", plan.TotalOverhead)
	}
	if plan.HarmAfter >= plan.HarmBefore {
		t.Fatal("plan removed nothing")
	}
	if plan.Improvement() <= 1 {
		t.Fatalf("improvement %v", plan.Improvement())
	}
	// A tighter budget must not remove more harm.
	tight := SelectivePlan(res, 0.05, 10)
	if tight.HarmBefore-tight.HarmAfter > plan.HarmBefore-plan.HarmAfter+1e-12 {
		t.Fatal("tighter budget outperformed larger one")
	}
}

func TestSelectivePlanEmptyCampaign(t *testing.T) {
	res := &core.CampaignResult{ByRegion: map[state.Region]core.OutcomeCounts{}}
	plan := SelectivePlan(res, 1, 1)
	if len(plan.Entries) != 0 || plan.Improvement() != 1 {
		t.Fatal("degenerate plan")
	}
}

func TestABFTBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewABFT(make([]float64, 5), 2)
}
