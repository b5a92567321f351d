// Package phi models the Intel Xeon Phi 3120A ("Knights Corner") as a
// reliability target: an inventory of on-die storage resources with raw
// upset rates, SECDED/MCA protection semantics, and per-benchmark occupancy
// profiles. The beam campaign (internal/beam) samples one raw fault per
// accelerated run from this model, filters it through the protection layer
// exactly as the paper's §2.1/§3.1 describes ("major resources are left
// unprotected, such as flip-flops in pipelines queues, logic gates,
// instruction dispatch units, and interconnect network"), and maps
// survivors to architectural corruption of the running workload.
package phi

import (
	"fmt"
	"sort"

	"phirel/internal/stats"
)

// Class groups device resources by their reliability behaviour.
type Class int

const (
	// SRAM is an ECC-protected storage array (L1/L2 under MCA).
	SRAM Class = iota
	// VectorRegfile is the per-thread 512-bit vector register file
	// (unprotected on KNC).
	VectorRegfile
	// Pipeline covers flip-flops in pipeline and queue stages.
	Pipeline
	// Scheduler covers instruction dispatch and thread-picker state.
	Scheduler
	// Interconnect covers ring-stop buffers between cores and memory.
	Interconnect
)

// String names the class.
func (c Class) String() string {
	switch c {
	case SRAM:
		return "sram"
	case VectorRegfile:
		return "vregfile"
	case Pipeline:
		return "pipeline"
	case Scheduler:
		return "scheduler"
	case Interconnect:
		return "interconnect"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ECCKind is the protection on a resource.
type ECCKind int

const (
	// NoECC: upsets propagate architecturally.
	NoECC ECCKind = iota
	// SECDED: single-bit upsets corrected; double-bit upsets raise an MCA
	// abort; wider bursts can escape silently.
	SECDED
)

// Resource is one on-die storage population.
type Resource struct {
	Name  string
	Class Class
	// Bits is the storage size across the device.
	Bits float64
	// ECC is the protection kind.
	ECC ECCKind
}

// Device is the reliability model of one accelerator card.
type Device struct {
	Name           string
	Cores          int
	ThreadsPerCore int
	VectorBits     int
	Resources      []Resource
	// SigmaBit is the calibrated per-bit sensitive cross-section (cm²).
	// See calibration notes in internal/beam.
	SigmaBit float64
	// PDoubleBit is the probability that an SRAM upset clusters into a
	// double-bit word error (detected, uncorrectable → MCA), per planar
	// multi-cell-upset data the paper cites [20].
	PDoubleBit float64
	// PBurstEscape is the probability that an SRAM upset is a wide burst
	// that defeats SECDED silently (interleaving failure).
	PBurstEscape float64
	// ActivationEnergyEV and RefTempK parameterise the Arrhenius
	// temperature-acceleration model (see AccelerationFactor): the thermal
	// activation energy in eV and the reference junction temperature in
	// kelvin at which the acceleration factor is 1. Zero values select the
	// KNC literature defaults.
	ActivationEnergyEV float64
	RefTempK           float64
}

const mbit = 1024 * 1024

// NewKNC3120A builds the paper's tested device: 57 in-order cores, 4
// threads each, 32×512-bit vector registers per thread, 64 KB L1 and
// 512 KB L2 per core (paper §3.1), MCA with SECDED on the SRAM arrays.
func NewKNC3120A() *Device {
	const cores = 57
	return &Device{
		Name:           "Xeon Phi 3120A (KNC)",
		Cores:          cores,
		ThreadsPerCore: 4,
		VectorBits:     512,
		Resources: []Resource{
			// 64 KB L1 (I+D) per core.
			{Name: "L1", Class: SRAM, Bits: cores * 64 * 8 * 1024, ECC: SECDED},
			// 512 KB L2 per core.
			{Name: "L2", Class: SRAM, Bits: cores * 512 * 8 * 1024, ECC: SECDED},
			// 32 vector registers × 512 bit × 4 threads per core.
			{Name: "vector-regfile", Class: VectorRegfile, Bits: cores * 32 * 512 * 4, ECC: NoECC},
			// Pipeline and queue flip-flops (estimate: ~2 Mbit device-wide).
			{Name: "pipeline-ff", Class: Pipeline, Bits: 2 * mbit, ECC: NoECC},
			// Dispatch/thread-picker state (~0.5 Mbit).
			{Name: "dispatch", Class: Scheduler, Bits: 0.5 * mbit, ECC: NoECC},
			// Ring-stop buffers (~1 Mbit).
			{Name: "ring", Class: Interconnect, Bits: 1 * mbit, ECC: NoECC},
		},
		SigmaBit:           sigmaBitKNC,
		PDoubleBit:         0.004,
		PBurstEscape:       0.002,
		ActivationEnergyEV: DefaultActivationEnergyEV,
		RefTempK:           DefaultRefTempK,
	}
}

// NewKNC5110P builds the 3120A's denser sibling (60 cores, same KNC
// microarchitecture and per-core arrays). The paper measured the 3120A; the
// 5110P model extrapolates the same calibrated cross-section to the larger
// resource inventory, giving the fleet sweep a second device arm.
func NewKNC5110P() *Device {
	const cores = 60
	return &Device{
		Name:           "Xeon Phi 5110P (KNC)",
		Cores:          cores,
		ThreadsPerCore: 4,
		VectorBits:     512,
		Resources: []Resource{
			{Name: "L1", Class: SRAM, Bits: cores * 64 * 8 * 1024, ECC: SECDED},
			{Name: "L2", Class: SRAM, Bits: cores * 512 * 8 * 1024, ECC: SECDED},
			{Name: "vector-regfile", Class: VectorRegfile, Bits: cores * 32 * 512 * 4, ECC: NoECC},
			{Name: "pipeline-ff", Class: Pipeline, Bits: 2.1 * mbit, ECC: NoECC},
			{Name: "dispatch", Class: Scheduler, Bits: 0.53 * mbit, ECC: NoECC},
			{Name: "ring", Class: Interconnect, Bits: 1.05 * mbit, ECC: NoECC},
		},
		SigmaBit:           sigmaBitKNC,
		PDoubleBit:         0.004,
		PBurstEscape:       0.002,
		ActivationEnergyEV: DefaultActivationEnergyEV,
		RefTempK:           DefaultRefTempK,
	}
}

// deviceRegistry maps stable short keys (the JSON/CLI names) to device
// constructors. Keys, not Device.Name strings, round-trip through sweep
// artifacts.
var deviceRegistry = map[string]func() *Device{
	"KNC3120A": NewKNC3120A,
	"KNC5110P": NewKNC5110P,
}

// DefaultDevice is the registry key of the paper's tested card.
const DefaultDevice = "KNC3120A"

// NewDevice builds a device by registry key ("" selects DefaultDevice).
func NewDevice(key string) (*Device, error) {
	if key == "" {
		key = DefaultDevice
	}
	mk, ok := deviceRegistry[key]
	if !ok {
		return nil, fmt.Errorf("phi: unknown device %q (have %v)", key, DeviceNames())
	}
	return mk(), nil
}

// DeviceNames lists the registry keys, sorted.
func DeviceNames() []string {
	out := make([]string, 0, len(deviceRegistry))
	for k := range deviceRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sigmaBitKNC is the calibrated per-bit cross-section. Derivation: the
// paper's DGEMM SDC FIT is ≈113 at sea level (Figure 2); with DGEMM's
// occupancy profile the device exposes ≈4.4 Mbit of unprotected state whose
// faults turn into SDCs with the probability our propagation measurements
// give (≈0.9), so σ_bit = FIT / (Φ · 10⁹ · bits_eff · P) ≈ 2.2e-15 cm²/bit
// — consistent with published 22 nm SRAM cross-sections (~1e-15..1e-14).
const sigmaBitKNC = 2.2e-15

// HWResult classifies a raw fault after the protection layer.
type HWResult int

const (
	// Corrected: ECC fixed it; no architectural effect.
	Corrected HWResult = iota
	// DetectedMCA: uncorrectable, machine-check abort (DUE).
	DetectedMCA
	// SilentArch: the fault reaches architectural state.
	SilentArch
)

// String names the result.
func (h HWResult) String() string {
	switch h {
	case Corrected:
		return "corrected"
	case DetectedMCA:
		return "mca"
	case SilentArch:
		return "arch"
	default:
		return fmt.Sprintf("HWResult(%d)", int(h))
	}
}

// Fault is one sampled raw upset after protection filtering.
type Fault struct {
	Resource *Resource
	Result   HWResult
}

// SampleFault draws one raw upset for a workload with the given profile.
// The resource is chosen with probability proportional to its occupied bits
// (occupancy models both architectural liveness and duty cycle: a fault in
// an unused bit is invisible and accounted as Corrected).
func (d *Device) SampleFault(r *stats.RNG, p Profile) Fault {
	weights := make([]float64, len(d.Resources))
	total := 0.0
	for i := range d.Resources {
		weights[i] = d.Resources[i].Bits * p.Occupancy(d.Resources[i].Class)
		total += weights[i]
	}
	idx := r.PickWeighted(weights)
	res := &d.Resources[idx]
	switch res.ECC {
	case SECDED:
		x := r.Float64()
		switch {
		case x < d.PBurstEscape:
			return Fault{Resource: res, Result: SilentArch}
		case x < d.PBurstEscape+d.PDoubleBit:
			return Fault{Resource: res, Result: DetectedMCA}
		default:
			return Fault{Resource: res, Result: Corrected}
		}
	default:
		return Fault{Resource: res, Result: SilentArch}
	}
}

// RawFaultRate returns the workload's raw upset rate in faults per hour at
// the natural sea-level flux: Σ bits·occupancy · σ_bit · Φ.
func (d *Device) RawFaultRate(p Profile, fluxPerCm2Hour float64) float64 {
	bits := 0.0
	for i := range d.Resources {
		bits += float64(d.Resources[i].Bits * p.Occupancy(d.Resources[i].Class)) // rounded before the sum: make fusion-check
	}
	return bits * d.SigmaBit * fluxPerCm2Hour
}

// RawFIT returns the raw upset rate expressed in FIT.
func (d *Device) RawFIT(p Profile, fluxPerCm2Hour float64) float64 {
	return d.RawFaultRate(p, fluxPerCm2Hour) * 1e9
}
