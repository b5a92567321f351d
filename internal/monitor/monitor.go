// Package monitor is the resident reliability monitor: a live campaign
// hands it each record through the campaign's Observe hook (set it to
// m.ObserveInjection on a core.CampaignConfig, m.ObserveBeam on a
// beam.Config), and it maintains rolling FIT/MTBF estimates with Wilson
// confidence intervals, per benchmark, per fault model, and in
// aggregate, in the libhwrel mold: raw per-bit fault rates from the phi
// device model, AVF weighting per corruption region, and an Arrhenius
// temperature-acceleration factor.
//
// The monitor keeps only integer outcome tallies; every estimate is a
// pure, deterministic function of those tallies (Snapshot folds them in
// sorted order), so incrementally observed records and a batch fold of
// the finished result (ObserveSweep, FromSweep) produce identical
// snapshots — and on a fixed-seed campaign the monitor's final estimate
// equals the post-hoc internal/analysis fit exactly, because both go
// through analysis.RateFITEstimate on the same tallies.
//
// All Observe methods are safe for concurrent use: a campaign's workers,
// and a fleet sweep's cells, call them from many goroutines at once.
package monitor

import (
	"sort"
	"sync"

	"phirel/internal/analysis"
	"phirel/internal/beam"
	"phirel/internal/core"
	"phirel/internal/fleet"
	"phirel/internal/phi"
)

// BeamModel is the fault-model key under which accelerated beam records
// are tallied, keeping the per-model breakdown total across both
// experiment classes.
const BeamModel = "beam"

// Config parameterises a Monitor.
type Config struct {
	// Device is the phi device registry key whose raw fault rates convert
	// outcome probabilities into FIT ("" selects phi.DefaultDevice).
	Device string
	// TempK is the operating junction temperature in kelvin for the
	// Arrhenius acceleration factor; 0 selects the device's reference
	// temperature, so the accelerated estimates equal the raw ones.
	TempK float64
	// SnapshotEvery, when positive, invokes OnSnapshot after every
	// SnapshotEvery observed records (and never otherwise). Callbacks are
	// serialised with observation; OnSnapshot must not call back into the
	// Monitor.
	SnapshotEvery int
	// OnSnapshot receives the periodic snapshots.
	OnSnapshot func(Snapshot)
}

// counts is one integer outcome tally.
type counts struct {
	trials, sdc, due int
}

func (c *counts) add(trials, sdc, due int) {
	c.trials += trials
	c.sdc += sdc
	c.due += due
}

// tally is a per-benchmark breakdown of one estimate group. The benchmark
// split is what lets Snapshot reconstruct the group's mean raw fault rate
// deterministically from integers, independent of observation order.
type tally map[string]*counts

func (t tally) at(bench string) *counts {
	c := t[bench]
	if c == nil {
		c = &counts{}
		t[bench] = c
	}
	return c
}

// Monitor accumulates rolling reliability tallies. The zero value is not
// usable; construct with New.
type Monitor struct {
	dev    *phi.Device
	tempK  float64
	every  int
	onSnap func(Snapshot)

	mu       sync.Mutex
	trials   int
	byBench  tally              // aggregate and per-benchmark groups
	byModel  map[string]tally   // per fault model (BeamModel for beam records)
	byRegion map[string]tally   // per corruption region (injection records only)
	rates    map[string]float64 // benchmark -> raw fault rate (faults/hour), cached
}

// New builds a monitor. An unknown device key is an error; everything
// else about the config is optional.
func New(cfg Config) (*Monitor, error) {
	dev, err := phi.NewDevice(cfg.Device)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		dev:      dev,
		tempK:    cfg.TempK,
		every:    cfg.SnapshotEvery,
		onSnap:   cfg.OnSnapshot,
		byBench:  tally{},
		byModel:  map[string]tally{},
		byRegion: map[string]tally{},
		rates:    map[string]float64{},
	}, nil
}

// rateFor returns the benchmark's raw fault rate under the monitor's
// device at the natural flux — the same conversion the beam campaign
// applies, so equal tallies yield equal fits. A benchmark without a
// calibrated occupancy profile contributes rate 0 (its FIT reads 0 rather
// than inventing a cross-section).
func (m *Monitor) rateFor(bench string) float64 {
	if r, ok := m.rates[bench]; ok {
		return r
	}
	r := 0.0
	if p, err := phi.ProfileFor(bench); err == nil {
		r = m.dev.RawFaultRate(p, analysis.NaturalFlux)
	}
	m.rates[bench] = r
	return r
}

// observe folds one record's outcome into the group tallies.
func (m *Monitor) observe(bench, model, region string, sdc, due int) {
	m.mu.Lock()
	m.trials++
	m.byBench.at(bench).add(1, sdc, due)
	mt := m.byModel[model]
	if mt == nil {
		mt = tally{}
		m.byModel[model] = mt
	}
	mt.at(bench).add(1, sdc, due)
	if region != "" {
		rt := m.byRegion[region]
		if rt == nil {
			rt = tally{}
			m.byRegion[region] = rt
		}
		rt.at(bench).add(1, sdc, due)
	}
	emit := m.every > 0 && m.onSnap != nil && m.trials%m.every == 0
	var snap Snapshot
	if emit {
		snap = m.snapshotLocked()
	}
	m.mu.Unlock()
	if emit {
		m.onSnap(snap)
	}
}

// ObserveInjection folds one CAROL-FI injection record.
func (m *Monitor) ObserveInjection(rec core.InjectionRecord) {
	oc := core.OutcomeCounts{}
	oc.Add(rec.OutcomeOf())
	m.observe(rec.Benchmark, rec.Model, string(rec.Region), oc.SDC, oc.DUE())
}

// ObserveBeam folds one accelerated beam record under the BeamModel key.
// Beam records carry no corruption region, so they do not contribute to
// the AVF breakdown.
func (m *Monitor) ObserveBeam(rec beam.Record) {
	oc := core.OutcomeCounts{}
	oc.Add(rec.OutcomeOf())
	m.observe(rec.Benchmark, BeamModel, "", oc.SDC, oc.DUE())
}

// ObserveSweep batch-folds a finished (or partial) sweep artifact: the
// integer tallies it adds are exactly what streaming every one of the
// sweep's records through ObserveInjection/ObserveBeam would have added,
// so snapshots after either path are identical.
func (m *Monitor) ObserveSweep(res *fleet.SweepResult) {
	if res == nil {
		return
	}
	m.mu.Lock()
	for _, c := range res.Cells {
		if c.Result == nil {
			continue
		}
		r := c.Result
		m.trials += r.Outcomes.Total()
		m.byBench.at(r.Benchmark).add(r.Outcomes.Total(), r.Outcomes.SDC, r.Outcomes.DUE())
		for model, oc := range r.ByModel {
			mt := m.byModel[model.String()]
			if mt == nil {
				mt = tally{}
				m.byModel[model.String()] = mt
			}
			mt.at(r.Benchmark).add(oc.Total(), oc.SDC, oc.DUE())
		}
		for region, oc := range r.ByRegion {
			rt := m.byRegion[string(region)]
			if rt == nil {
				rt = tally{}
				m.byRegion[string(region)] = rt
			}
			rt.at(r.Benchmark).add(oc.Total(), oc.SDC, oc.DUE())
		}
	}
	for _, c := range res.BeamCells {
		if c.Result == nil {
			continue
		}
		r := c.Result
		m.trials += r.Outcomes.Total()
		m.byBench.at(r.Benchmark).add(r.Outcomes.Total(), r.Outcomes.SDC, r.Outcomes.DUE())
		mt := m.byModel[BeamModel]
		if mt == nil {
			mt = tally{}
			m.byModel[BeamModel] = mt
		}
		mt.at(r.Benchmark).add(r.Outcomes.Total(), r.Outcomes.SDC, r.Outcomes.DUE())
	}
	m.mu.Unlock()
}

// FromSweep builds the post-hoc snapshot of a sweep artifact: a fresh
// monitor, one batch fold, one snapshot. This is the serve path for
// completed sweeps and the batch side of the incremental == batch
// property.
func FromSweep(res *fleet.SweepResult, cfg Config) (Snapshot, error) {
	m, err := New(cfg)
	if err != nil {
		return Snapshot{}, err
	}
	m.ObserveSweep(res)
	return m.Snapshot(), nil
}

// groupRate returns the tally's mean raw fault rate and total trial
// count, folding benchmarks in sorted order so the value is a pure
// function of the tallies. A single-benchmark tally short-circuits to
// that benchmark's exact rate, which keeps single-benchmark groups
// bit-identical to the post-hoc per-campaign fits.
func (m *Monitor) groupRate(t tally) (rate float64, n int) {
	if len(t) == 1 {
		for bench, c := range t {
			return m.rateFor(bench), c.trials
		}
	}
	benches := make([]string, 0, len(t))
	for b := range t {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	sum := 0.0
	for _, b := range benches {
		c := t[b]
		sum += float64(float64(c.trials) * m.rateFor(b)) // rounded before the sum: make fusion-check
		n += c.trials
	}
	if n > 0 {
		rate = sum / float64(n)
	}
	return rate, n
}

// group renders one tally as a named estimate group.
func (m *Monitor) group(name string, t tally, af float64) Group {
	rate, n := m.groupRate(t)
	var sdc, due int
	for _, c := range t {
		sdc += c.sdc
		due += c.due
	}
	return Group{
		Name:   name,
		Trials: n,
		SDC:    newRate(analysis.RateFITEstimate(rate, sdc, n), af),
		DUE:    newRate(analysis.RateFITEstimate(rate, due, n), af),
	}
}

// Snapshot renders the current tallies as a schema-stable snapshot.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

func (m *Monitor) snapshotLocked() Snapshot {
	af := m.dev.AccelerationFactor(m.tempK)
	snap := Snapshot{
		Schema:      SchemaV1,
		Device:      m.dev.Name,
		TempK:       m.tempK,
		AccelFactor: af,
		Trials:      m.trials,
		Aggregate:   m.group("all", m.byBench, af),
	}
	for _, b := range sortedKeys(m.byBench) {
		snap.Benchmarks = append(snap.Benchmarks,
			m.group(b, tally{b: m.byBench[b]}, af))
	}
	for _, name := range sortedKeysT(m.byModel) {
		snap.Models = append(snap.Models, m.group(name, m.byModel[name], af))
	}
	// Regions partition the injection-class harmful FIT by AVF weight:
	// FIT_r = rawFIT · occupancy_r · AVF_r, where occupancy_r = n_r/N is
	// the region's share of fault samples and AVF_r its un-masked share —
	// the libhwrel per-block shape. The contributions sum to the
	// injection records' total harmful FIT.
	injRate, injN := m.injectionRate()
	for _, name := range sortedKeysT(m.byRegion) {
		t := m.byRegion[name]
		var n, sdc, due int
		for _, c := range t {
			n += c.trials
			sdc += c.sdc
			due += c.due
		}
		avf := 0.0
		if n > 0 {
			avf = float64(sdc+due) / float64(n)
		}
		fit := 0.0
		if injN > 0 {
			fit = injRate * 1e9 * float64(sdc+due) / float64(injN)
		}
		snap.Regions = append(snap.Regions, RegionGroup{
			Name: name, Trials: n, AVF: avf, FIT: fit, AccelFIT: fit * af,
		})
	}
	return snap
}

// injectionRate returns the mean raw fault rate and trial count across
// the records that carry a corruption region (the injection class).
func (m *Monitor) injectionRate() (rate float64, n int) {
	merged := tally{}
	for _, t := range m.byRegion {
		for b, c := range t {
			merged.at(b).add(c.trials, c.sdc, c.due)
		}
	}
	return m.groupRate(merged)
}

func sortedKeys(t tally) []string {
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysT(m map[string]tally) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
