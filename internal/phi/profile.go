package phi

import "fmt"

// Profile captures how much of each device resource class a workload keeps
// architecturally live — its duty cycle on that resource. Occupancies scale
// the exposed bit population: a compute-bound kernel stresses the vector
// register file; a memory-bound stencil keeps cache lines and ring stops
// full (paper §4.2: HotSpot's "prevailing use of control flow statements
// and low arithmetic intensity seem to make it more prone to DUE"; "more
// regular codes like DGEMM and LavaMD have the lowest DUE FITs").
type Profile struct {
	Name string
	Occ  map[Class]float64
}

// Occupancy returns the profile's duty factor for a class (0 when absent).
func (p Profile) Occupancy(c Class) float64 { return p.Occ[c] }

// Validate checks all occupancies are in [0,1].
func (p Profile) Validate() error {
	for c, v := range p.Occ {
		if v < 0 || v > 1 {
			return fmt.Errorf("phi: profile %s occupancy %s=%v out of [0,1]", p.Name, c, v)
		}
	}
	return nil
}

// profiles holds the calibrated per-benchmark occupancy profiles. The
// values encode the paper's workload characterisation (§3.2) — they are
// calibration inputs, not measurements; DESIGN.md §5.4 lists them as such.
var profiles = map[string]Profile{
	// Compute-bound, vector-unit saturating, small cache footprint.
	"DGEMM": {Name: "DGEMM", Occ: map[Class]float64{
		SRAM: 0.30, VectorRegfile: 0.90, Pipeline: 0.80, Scheduler: 0.30, Interconnect: 0.30,
	}},
	// Dense algebra with heavy reuse and temporaries: high register and
	// cache duty (single precision doubles the elements per line).
	"LUD": {Name: "LUD", Occ: map[Class]float64{
		SRAM: 0.50, VectorRegfile: 0.95, Pipeline: 0.85, Scheduler: 0.40, Interconnect: 0.45,
	}},
	// Memory-bound stencil: caches, ring and dispatch stay hot, vector
	// units idle between loads.
	"HotSpot": {Name: "HotSpot", Occ: map[Class]float64{
		SRAM: 0.90, VectorRegfile: 0.45, Pipeline: 0.75, Scheduler: 0.70, Interconnect: 0.80,
	}},
	// N-body: compute-bound with modest, regular memory traffic.
	"LavaMD": {Name: "LavaMD", Occ: map[Class]float64{
		SRAM: 0.35, VectorRegfile: 0.85, Pipeline: 0.70, Scheduler: 0.30, Interconnect: 0.30,
	}},
	// AMR: irregular, pointer-chasing mesh phases keep scheduler and ring
	// busy; moderate vector use.
	"CLAMR": {Name: "CLAMR", Occ: map[Class]float64{
		SRAM: 0.70, VectorRegfile: 0.50, Pipeline: 0.70, Scheduler: 0.60, Interconnect: 0.60,
	}},
	// NW is fault-injection only in the paper, but a profile is provided
	// so the beam harness can run it as an extension.
	"NW": {Name: "NW", Occ: map[Class]float64{
		SRAM: 0.60, VectorRegfile: 0.30, Pipeline: 0.60, Scheduler: 0.50, Interconnect: 0.50,
	}},
}

// ProfileFor returns the calibrated profile for a benchmark name.
func ProfileFor(benchmark string) (Profile, error) {
	p, ok := profiles[benchmark]
	if !ok {
		return Profile{}, fmt.Errorf("phi: no occupancy profile for %q", benchmark)
	}
	return p, nil
}
