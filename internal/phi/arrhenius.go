package phi

import "phirel/internal/stats"

// BoltzmannEV is the Boltzmann constant in electron-volts per kelvin, the
// unit activation energies are quoted in.
const BoltzmannEV = 8.617333262e-5

// DefaultActivationEnergyEV is the thermal activation energy the KNC
// reliability literature fits failure acceleration with (0.379 eV), and
// DefaultRefTempK the reference junction temperature (300 K) at which the
// acceleration factor is exactly 1.
const (
	DefaultActivationEnergyEV = 0.379
	DefaultRefTempK           = 300.0
)

// ArrheniusFactor returns the Arrhenius temperature-acceleration factor
// between a reference temperature and an operating temperature (both in
// kelvin):
//
//	AF = exp( Ea/k · (1/T_ref − 1/T) )
//
// AF > 1 for T > T_ref (failures accelerate with heat), AF = 1 at T_ref,
// and non-positive temperatures degenerate to 1 rather than NaN so a
// zero-valued config never poisons downstream FIT math.
func ArrheniusFactor(tempK, refTempK, activationEnergyEV float64) float64 {
	if tempK <= 0 || refTempK <= 0 {
		return 1
	}
	return stats.Exp(activationEnergyEV / BoltzmannEV * (1/refTempK - 1/tempK))
}

// AccelerationFactor returns the device's Arrhenius acceleration factor at
// the given junction temperature (kelvin), relative to the device's
// reference temperature. A device without calibrated Arrhenius parameters
// falls back to the KNC defaults; tempK <= 0 selects the reference
// temperature itself (AF = 1), so an unconfigured monitor reports
// unaccelerated FIT.
func (d *Device) AccelerationFactor(tempK float64) float64 {
	ea, ref := d.ActivationEnergyEV, d.RefTempK
	if ea == 0 {
		ea = DefaultActivationEnergyEV
	}
	if ref <= 0 {
		ref = DefaultRefTempK
	}
	if tempK <= 0 {
		return 1
	}
	return ArrheniusFactor(tempK, ref, ea)
}
