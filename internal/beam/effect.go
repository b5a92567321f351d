// Package beam simulates the paper's LANSCE neutron-beam campaigns (§4):
// accelerated runs that each receive exactly one raw device fault, filtered
// through the phi device model's ECC/MCA layer, with survivors mapped to
// architectural corruption of the running workload. Outputs are classified
// exactly as the host checker did — any bit mismatch is an SDC — and
// aggregated into SDC/DUE FIT rates split by spatial pattern (Figure 2),
// relative-error tolerance curves (Figure 3), and machine-scale
// extrapolations (§4.2).
package beam

import (
	"fmt"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/phi"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// Effect is the architectural manifestation of a silent fault.
type Effect int

const (
	// EffectSingle corrupts one data element (a latched flip-flop upset).
	EffectSingle Effect = iota
	// EffectVectorLanes corrupts a vector register's worth of consecutive
	// elements (512 bits on KNC).
	EffectVectorLanes
	// EffectCacheLine corrupts one 64-byte line (SECDED escape or ring
	// transfer corruption).
	EffectCacheLine
	// EffectThreadTile corrupts a contiguous tile an entire hardware
	// thread produced (scheduler/dispatch upset: the paper's "corruption
	// in a resource shared among parallel processes").
	EffectThreadTile
	// EffectControl corrupts a live control/constant scalar.
	EffectControl
)

// String names the effect.
func (e Effect) String() string {
	switch e {
	case EffectSingle:
		return "single-elem"
	case EffectVectorLanes:
		return "vector-lanes"
	case EffectCacheLine:
		return "cache-line"
	case EffectThreadTile:
		return "thread-tile"
	case EffectControl:
		return "control"
	default:
		return fmt.Sprintf("Effect(%d)", int(e))
	}
}

// effectFor maps a faulted resource class to an architectural effect.
func effectFor(c phi.Class, r *stats.RNG) Effect {
	switch c {
	case phi.VectorRegfile:
		if r.Bernoulli(0.8) {
			return EffectVectorLanes
		}
		return EffectSingle
	case phi.Pipeline:
		if r.Bernoulli(0.7) {
			return EffectSingle
		}
		return EffectControl
	case phi.Scheduler:
		if r.Bernoulli(0.5) {
			return EffectControl
		}
		return EffectThreadTile
	case phi.Interconnect, phi.SRAM:
		return EffectCacheLine
	default:
		return EffectSingle
	}
}

// strike is a planned beam strike: the victim picked from the horizon's
// description of the stack live at the tick, and for a control strike the
// whole arming. A data strike draws its burst when applied, on the site the
// live registry resolves, as an injected buffer corruption does.
type strike struct {
	effect Effect
	victim bench.Victim
	hit    bool   // something of the effect's kind was live at the tick
	detail string // the record's Detail, for every strike but a data hit

	delay  int // a control strike's arming
	model  fault.Model
	armRNG *stats.RNG
}

// planStrike picks the victim of effect e at tick with the draws, and in the
// order, a strike landing on the live registry there would take: a control
// strike picks uniformly among the armable cells, then draws its model,
// delay and corruption stream; a data strike picks among the non-empty
// buffers weighted by footprint (a physical fault lands in a uniformly
// random occupied bit). The live order is the registry's, global first.
func planStrike(r *bench.Runner, e Effect, tick int, rng *stats.RNG) strike {
	control := e == EffectControl
	s := strike{effect: e, detail: "data:none-live"}
	if control {
		s.detail = "control:none-live"
	}
	live := r.LiveAt(tick)
	victims := live[:0]
	var weights []float64
	for _, v := range live {
		if control && v.Armable || !control && !v.Armable && v.Bytes > 0 {
			victims = append(victims, v)
			weights = append(weights, float64(v.Bytes))
		}
	}
	switch {
	case len(victims) == 0:
		return s
	case !control:
		s.victim, s.hit = victims[rng.PickWeighted(weights)], true
		return s
	}
	s.victim, s.hit = victims[rng.Intn(len(victims))], true
	s.detail = "control:" + s.victim.Name
	s.model = fault.Single
	if rng.Bernoulli(0.3) {
		s.model = fault.Random
	}
	s.delay = rng.Intn(64)
	s.armRNG = rng.Split()
	return s
}

// decided reports whether the strike's run is the golden run over again:
// nothing of its kind was live, or its cell is not loaded delay more times.
func (s strike) decided() bool {
	return !s.hit || s.effect == EffectControl && s.delay >= s.victim.LoadsLeft
}

// elemCorruptor matches the buffers a data strike lands on.
type elemCorruptor interface {
	state.Site
	Len() int
	CorruptElem(r *stats.RNG, m fault.Model, i int) state.Report
}

// apply corrupts the live state as the strike planned, from the inject
// callback of the run at its tick, and returns the record's Detail.
func (s strike) apply(r *bench.Runner, dev *phi.Device, rng *stats.RNG) string {
	if !s.hit {
		return s.detail
	}
	site := r.Site(s.victim)
	if s.effect == EffectControl {
		site.(state.Armable).Arm(s.delay, s.model, s.armRNG)
		return s.detail
	}
	buf := site.(elemCorruptor)
	elemBytes := buf.Kind().Bytes()
	var n int
	var m fault.Model
	switch s.effect {
	case EffectSingle:
		n = 1
		switch x := rng.Float64(); {
		case x < 0.6:
			m = fault.Single
		case x < 0.8:
			m = fault.Double
		default:
			m = fault.Random
		}
	case EffectVectorLanes:
		n = dev.VectorBits / (8 * elemBytes)
		m = fault.Single
	case EffectCacheLine:
		// A corrupted transfer lane flips one bit per element across
		// the line; occasionally a whole word is garbage.
		n = 64 / elemBytes
		m = fault.Single
		if rng.Bernoulli(0.2) {
			n = 1
			m = fault.Random
		}
	case EffectThreadTile:
		// A mis-scheduled thread either stops early (its chunk keeps
		// stale/zero data) or retires a burst of single-bit-damaged
		// results; it does not emit uniformly random words.
		n = 16 + rng.Intn(113) // 16..128 elements of a thread's chunk
		if rng.Bernoulli(0.6) {
			m = fault.Zero
		} else {
			m = fault.Single
		}
	}
	if n < 1 {
		n = 1
	}
	if n > buf.Len() {
		n = buf.Len()
	}
	start := rng.Intn(buf.Len() - n + 1)
	for i := 0; i < n; i++ {
		buf.CorruptElem(rng, m, start+i)
	}
	return fmt.Sprintf("%s:%s[%d+%d]", s.effect, buf.Name(), start, n)
}
