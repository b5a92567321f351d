package bench_test

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"phirel/internal/beam"
	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/phi"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// watched runs a kernel and logs its runs, so a test can tell which trials
// ran the kernel, where each run started and where it stopped. It forwards
// the kernel's resume points and convergence check; a kernel without them
// saves no point and never converges.
type watched struct {
	bench.Benchmark
	ctx  *bench.Ctx // the context of the current run
	runs []run
}

// run is one kernel run: the tick it started at, the ticks it executed and
// the resume point it stopped at as converged, or -1.
type run struct{ start, executed, converged int }

func (w *watched) Run(ctx *bench.Ctx) {
	defer w.watch(ctx)()
	w.Benchmark.Run(ctx)
}

func (w *watched) SavePoint(tick int) (*bench.Snapshot, bool) {
	if k, ok := w.Benchmark.(bench.Resumable); ok {
		return k.SavePoint(tick)
	}
	return nil, false
}

func (w *watched) Resume(ctx *bench.Ctx, tick int, s *bench.Snapshot, golden bench.Output) {
	defer w.watch(ctx)()
	w.Benchmark.(bench.Resumable).Resume(ctx, tick, s, golden)
}

func (w *watched) Converged(tick int, s *bench.Snapshot, golden bench.Output) (kept int, ok bool) {
	k, convergent := w.Benchmark.(bench.Convergent)
	if !convergent {
		return 0, false
	}
	if kept, ok = k.Converged(tick, s, golden); ok {
		w.runs[len(w.runs)-1].converged = tick
	}
	return kept, ok
}

// watch logs a run; its count of executed ticks ends where the run does, a
// converged run's at the point it stopped at.
func (w *watched) watch(ctx *bench.Ctx) func() {
	w.ctx = ctx
	w.runs = append(w.runs, run{start: ctx.Ticks(), converged: -1})
	return func() {
		r := &w.runs[len(w.runs)-1]
		r.executed = ctx.Ticks() - r.start
	}
}

// last is the latest run.
func (w *watched) last() run { return w.runs[len(w.runs)-1] }

func newWatched(t *testing.T, name string) (*watched, *bench.Runner) {
	t.Helper()
	b, err := bench.New(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &watched{Benchmark: b}
	r, err := bench.NewRunner(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, r
}

// watchedRunner hands out rs's runner of (name, 1) with its kernel watched,
// and puts it back, so the next Get of the key — a beam campaign's — is the
// same runner. The list must expect the key once more than its campaigns
// will ask for it.
func watchedRunner(t *testing.T, rs *bench.Runners, name string) (*watched, *bench.Runner) {
	t.Helper()
	r, err := rs.Get(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &watched{Benchmark: r.B}
	r.B = w
	rs.Put(r)
	return w, r
}

// endState is a RawResult with its output as bit patterns, so that a NaN an
// injection produced compares equal to itself.
type endState struct {
	bench.RawResult
	Output []uint64
}

func endOf(res bench.RawResult) endState {
	e := endState{RawResult: res}
	for _, v := range res.Output.Vals {
		e.Output = append(e.Output, math.Float64bits(v))
	}
	e.RawResult.Output.Vals = nil
	return e
}

// endDigest is a RawResult with its output reduced to a hash of its bits,
// which the harness keeps per trial instead of the output.
type endDigest struct {
	bench.RawResult
	Len  int
	Bits uint64
}

func endDigestOf(res bench.RawResult) endDigest {
	d := endDigest{RawResult: res, Len: len(res.Output.Vals), Bits: hashOf(res.Output.Vals)}
	d.RawResult.Output.Vals = nil
	return d
}

// hashOf is FNV-1a over the bytes of s, NaN payloads and signed zeros
// included.
func hashOf[T any](s []T) uint64 {
	h := fnv.New64a()
	if len(s) > 0 {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0]))))
	}
	return h.Sum64()
}

// siteDigest is what an injection can see of one live site: where it is,
// whether it is armed, and a hash of every byte of its value.
type siteDigest struct {
	Frame, Name string
	Kind        state.Kind
	Armed       bool
	Bits        uint64
}

// tickDigest is everything of a run that an injection at a tick can see or
// that the rest of the run depends on.
type tickDigest struct {
	Ticks int
	Work  int64
	Sites []siteDigest
}

func digestAt(ctx *bench.Ctx, reg *state.Registry) (tickDigest, error) {
	d := tickDigest{Ticks: ctx.Ticks(), Work: ctx.WorkDone()}
	for _, f := range reg.Frames() {
		for _, s := range f.Sites() {
			sd := siteDigest{Frame: f.Name, Name: s.Name(), Kind: s.Kind()}
			if a, ok := s.(state.Armable); ok {
				sd.Armed = a.Armed()
			}
			switch s := s.(type) {
			case *state.Cell[int]:
				sd.Bits = hashOf([]int{s.Load()})
			case *state.Cell[float64]:
				sd.Bits = hashOf([]float64{s.Load()})
			case *state.Cell[float32]:
				sd.Bits = hashOf([]float32{s.Load()})
			case *state.Buf[float64]:
				sd.Bits = hashOf(s.Data)
			case *state.Buf[float32]:
				sd.Bits = hashOf(s.Data)
			case *state.Buf[int32]:
				sd.Bits = hashOf(s.Data)
			case *state.Buf[int]:
				sd.Bits = hashOf(s.Data)
			default:
				return d, fmt.Errorf("site %s has a type the harness cannot read: %T", s.Name(), s)
			}
			d.Sites = append(d.Sites, sd)
		}
	}
	return d, nil
}

// diffDigests names the first difference between two tick digests.
func diffDigests(got, want tickDigest) string {
	if got.Ticks != want.Ticks || got.Work != want.Work || len(got.Sites) != len(want.Sites) {
		return fmt.Sprintf("ticks %d, work %d, %d live sites; want %d, %d, %d", got.Ticks, got.Work, len(got.Sites), want.Ticks, want.Work, len(want.Sites))
	}
	for i, g := range got.Sites {
		if g != want.Sites[i] {
			return fmt.Sprintf("site %d is %+v, want %+v", i, g, want.Sites[i])
		}
	}
	return "no difference found"
}

// stratum is where a trial lands: the resume-point interval of its tick (the
// ticks from one point the kernel saves to the next), the victim's frame in
// the stack live there, and its kind. frame -1 is a tick with nothing live.
type stratum struct {
	interval, frame int
	kind            state.Kind
}

func (s stratum) String() string {
	return fmt.Sprintf("interval %d frame %d %s", s.interval, s.frame, s.kind)
}

// planKind is the form of a trial in the harness's list.
type planKind int

const (
	injectTrial planKind = iota // core.Injector.InjectOne
	beamStrike                  // one run of a beam campaign
	direct                      // one site corrupted by hand at one tick
)

// plan is one trial of the list: everything both runners are given.
type plan struct {
	kind planKind
	seed uint64 // the trial's stream; a strike's global run index
	// model is an injection's fault model, and the one a direct plan
	// corrupts with.
	model fault.Model

	// An injection injects under policy with arm delays below maxDelay.
	policy   state.Policy
	maxDelay int

	// A strike lands on device, with ECC or without.
	device string
	noECC  bool

	// A direct plan corrupts victim at tick: a cell armed with delay, or a
	// buffer's first element and one element drawn from seed.
	tick   int
	victim bench.Victim
	delay  int

	// stratum is where an injection or a direct plan lands.
	stratum stratum
}

// trial is what one runner shows of one plan.
type trial struct {
	inj  core.InjectionRecord
	beam beam.Record
	at   tickDigest // a direct plan's state at its tick
	end  endDigest  // a direct plan's RawResult
	def  state.Deferred
	runs []run // the kernel runs the trial made
}

// strikeSeed is the beam campaign every strike plan is a run of.
const strikeSeed = 0x51

// sizes of the list per kernel: InjectOne trials per (model, policy, arm
// delay bound), strikes per (device, ECC) arm, decided strikes per ECC-on
// arm, and the stride through the delay exponents 0..18 of direct arming.
type sizes struct{ perCombo, perArm, decided, expStride int }

func listSizes() sizes {
	if testing.Short() {
		return sizes{2, 6, 1, 3}
	}
	return sizes{6, 25, 4, 1}
}

// strikeScan is how many runs of each ECC-on arm decidedStrikes looks at.
const strikeScan = 2000

// levers is the per-kernel state the plans are built from: the normal
// runner's resume points and, for every tick, what LiveAt reports there.
type levers struct {
	r         *bench.Runner
	intervals []int // tick → resume-point interval
	live      [][]bench.Victim
}

func newLevers(r *bench.Runner) *levers {
	l := &levers{r: r}
	iv := -1
	for tick, last := 0, -1; tick < r.TotalTicks; tick++ {
		if p := r.ResumePoint(tick); p != last {
			iv, last = iv+1, p
		}
		l.intervals = append(l.intervals, iv)
		l.live = append(l.live, r.LiveAt(tick))
	}
	return l
}

func (l *levers) stratumOf(tick int, v bench.Victim) stratum {
	return stratum{l.intervals[tick], v.Frame, v.Kind}
}

// strata is every stratum LiveAt reports.
func (l *levers) strata() map[stratum]bool {
	out := map[stratum]bool{}
	for tick, live := range l.live {
		for _, v := range live {
			out[l.stratumOf(tick, v)] = true
		}
	}
	return out
}

// plans builds the kernel's list: injections, strikes and direct plans.
func (l *levers) plans() []plan {
	sz := listSizes()
	return slices.Concat(l.injections(sz), strikes(sz), l.directs(sz))
}

// injections: for every fault model, selection policy and arm-delay bound,
// candidate streams are replayed to their tick and victim — InjectOne's
// first draws — and taken round robin over the strata they land in, the
// least covered first, so a rare frame is injected as often as the budget
// allows.
func (l *levers) injections(sz sizes) []plan {
	var out []plan
	covered := map[stratum]int{}
	for _, m := range fault.Models {
		for _, policy := range []state.Policy{state.ByFrameThenVariable, state.ByVariable, state.ByBytes} {
			for _, maxDelay := range []int{core.DefaultArmDelayMax, 32, 1 << 18} {
				buckets := map[stratum][]uint64{}
				for j := uint64(0); j < 2000; j++ {
					seed := stats.Mix64(uint64(m)<<40|uint64(policy)<<32|uint64(maxDelay), j)
					rng := stats.NewRNG(seed)
					tick := rng.Intn(l.r.TotalTicks)
					s := stratum{l.intervals[tick], -1, 0}
					if v, ok := l.r.Victim(tick, rng, policy); ok {
						s = l.stratumOf(tick, v)
					}
					buckets[s] = append(buckets[s], seed)
				}
				keys := make([]stratum, 0, len(buckets))
				for s := range buckets {
					keys = append(keys, s)
				}
				for taken := 0; taken < sz.perCombo && len(keys) > 0; {
					slices.SortFunc(keys, func(a, b stratum) int {
						return cmp.Or(cmp.Compare(covered[a], covered[b]), cmp.Compare(a.interval, b.interval),
							cmp.Compare(a.frame, b.frame), cmp.Compare(a.kind, b.kind))
					})
					s := keys[0]
					out = append(out, plan{kind: injectTrial, seed: buckets[s][0], model: m, policy: policy, maxDelay: maxDelay, stratum: s})
					covered[s]++
					taken++
					if buckets[s] = buckets[s][1:]; len(buckets[s]) == 0 {
						keys = keys[1:]
					}
				}
			}
		}
	}
	return out
}

// strikes: the first runs of the strike campaign on every device, with ECC
// and without.
func strikes(sz sizes) []plan {
	var out []plan
	for _, dev := range phi.DeviceNames() {
		for _, noECC := range []bool{false, true} {
			for i := 0; i < sz.perArm; i++ {
				out = append(out, plan{kind: beamStrike, seed: uint64(i), device: dev, noECC: noECC})
			}
		}
	}
	return out
}

// directs: every buffer live in a resume-point interval has its first
// element and a seeded one corrupted at the last tick it is live there, the
// tick before the next point's convergence check, and one buffer of each
// stratum at the first, the point's own tick; every armable cell is armed at
// the delays 2^0, 2^1, … 2^18 (past its largest loads-left only the first:
// the rest never fire either; under -short every third), its intervals
// taken in turn from an offset of its own, and at full size in every one of
// them.
func (l *levers) directs(sz sizes) []plan {
	var out []plan
	// The live ticks of every (interval, frame, site), in order of first
	// appearance, and each cell's intervals and largest loads-left.
	type siteKey struct {
		interval, frame int
		name            string
	}
	type cellKey struct {
		frame int
		name  string
	}
	var sites []siteKey
	ticks := map[siteKey][]int{}
	var cells []cellKey
	cellSites := map[cellKey][]siteKey{}
	maxLeft := map[cellKey]int{}
	for tick, live := range l.live {
		for _, v := range live {
			k := siteKey{l.intervals[tick], v.Frame, v.Name}
			if ticks[k] == nil {
				sites = append(sites, k)
				if v.Armable {
					c := cellKey{v.Frame, v.Name}
					if cellSites[c] == nil {
						cells = append(cells, c)
					}
					cellSites[c] = append(cellSites[c], k)
				}
			}
			ticks[k] = append(ticks[k], tick)
			if v.Armable {
				c := cellKey{v.Frame, v.Name}
				maxLeft[c] = max(maxLeft[c], v.LoadsLeft)
			}
		}
	}
	victim := func(k siteKey, tick int) bench.Victim {
		i := slices.IndexFunc(l.live[tick], func(v bench.Victim) bool { return v.Frame == k.frame && v.Name == k.name })
		return l.live[tick][i]
	}
	add := func(k siteKey, tick, delay int) {
		v := victim(k, tick)
		if !v.Armable && v.Bytes == 0 {
			return
		}
		out = append(out, plan{kind: direct, seed: stats.Mix64(0xd1, uint64(len(out))), model: fault.Models[len(out)%len(fault.Models)],
			tick: tick, victim: v, delay: delay, stratum: l.stratumOf(tick, v)})
	}
	first := map[stratum]bool{}
	for _, k := range sites {
		ts := ticks[k]
		v := victim(k, ts[0])
		if v.Armable {
			continue
		}
		add(k, ts[len(ts)-1], 0)
		if s := l.stratumOf(ts[0], v); !first[s] {
			first[s] = true
			if len(ts) > 1 {
				add(k, ts[0], 0)
			}
		}
	}
	for ci, c := range cells {
		var delays []int
		for e := 0; e <= 18; e += sz.expStride {
			delays = append(delays, 1<<e)
			if 1<<e > maxLeft[c] {
				break
			}
		}
		ks := cellSites[c]
		n := len(delays)
		if !testing.Short() {
			n = max(n, len(ks))
		}
		for i := range n {
			k := ks[(ci+i)%len(ks)]
			ts := ticks[k]
			add(k, ts[len(ts)-1-(i/len(ks))%len(ts)], delays[i%len(delays)])
		}
	}
	return out
}

// runStrike runs one strike plan as a one-run beam campaign over rs.
func runStrike(name string, rs *bench.Runners, p plan) (beam.Record, error) {
	dev, err := phi.NewDevice(p.device)
	if err != nil {
		return beam.Record{}, err
	}
	var rec beam.Record
	_, err = beam.Run(beam.Config{Benchmark: name, Runs: 1, Offset: int(p.seed), Seed: strikeSeed, BenchSeed: 1,
		Workers: 1, Device: dev, DisableECC: p.noECC, Runners: rs, Observe: func(r beam.Record) { rec = r }})
	return rec, err
}

// reachesKernel reports whether a strike's fault got past the device's ECC and
// machine checks to the kernel.
func reachesKernel(rec beam.Record) bool {
	return rec.HWResult != phi.Corrected.String() && rec.HWResult != phi.DetectedMCA.String()
}

// decidedStrikes returns, of the first strikeScan runs of each ECC-on arm,
// the first n per arm that reach the kernel yet make no run of r, whose
// kernel w watches. Such strikes are rare — a control strike armed past its
// cell's last load — and the first runs of an arm seldom hold one.
func decidedStrikes(name string, rs *bench.Runners, w *watched, n int) ([]plan, error) {
	var out []plan
	for _, dev := range phi.DeviceNames() {
		for i, found := 0, 0; i < strikeScan && found < n; i++ {
			p := plan{kind: beamStrike, seed: uint64(i), device: dev}
			before := len(w.runs)
			rec, err := runStrike(name, rs, p)
			if err != nil {
				return nil, err
			}
			if reachesKernel(rec) && len(w.runs) == before {
				out = append(out, p)
				found++
			}
			w.runs = w.runs[:before]
		}
	}
	return out, nil
}

// runPlans runs the list on one runner of rs, whose kernel w watches, and
// returns what each trial shows.
func runPlans(name string, rs *bench.Runners, w *watched, r *bench.Runner, plans []plan) ([]trial, error) {
	out := make([]trial, len(plans))
	in := &core.Injector{Bench: r.B, Runner: r}
	for i, p := range plans {
		before, tr := len(w.runs), &out[i]
		switch p.kind {
		case injectTrial:
			in.Policy, in.ArmDelayMax = p.policy, p.maxDelay
			tr.inj = in.InjectOne(p.model, stats.NewRNG(p.seed))
		case beamStrike:
			var err error
			if tr.beam, err = runStrike(name, rs, p); err != nil {
				return nil, err
			}
		case direct:
			var (
				at  tickDigest
				def *state.Deferred
				err error
			)
			rng := stats.NewRNG(p.seed)
			res := r.RunInjected(p.tick, func() {
				at, err = digestAt(w.ctx, w.Registry())
				site := r.Site(p.victim)
				if a, ok := site.(state.Armable); ok {
					def = a.Arm(p.delay, p.model, rng.Split())
					return
				}
				buf := site.(interface {
					Len() int
					CorruptElem(*stats.RNG, fault.Model, int) state.Report
				})
				buf.CorruptElem(rng, p.model, 0)
				buf.CorruptElem(rng, p.model, rng.Intn(buf.Len()))
			})
			if err != nil {
				return nil, err
			}
			tr.at, tr.end = at, endDigestOf(res)
			if def != nil {
				tr.def = *def
			}
		}
		tr.runs = slices.Clone(w.runs[before:])
		w.runs = w.runs[:before]
	}
	return out, nil
}

// TestLeversMatchReference is the one differential harness of the five
// levers that spare a trial work: a trial decided from the horizon without a
// run, a run resumed at a saved point, a run stopped where it converged, a
// beam strike planned and decided like an injection, and loads debited
// instead of performed. For every kernel it builds one seeded list of
// trials stratified over (resume-point interval × live frame × site kind)
// (levers.plans) and runs it on a runner of a reference list, which pulls no
// lever, and on a runner of a normal list of the same resident key, at
// once. Every injection and strike record must be DeepEqual, and every
// direct plan must find the same state at its tick and end in a bit-equal
// RawResult with the same deferred report. The accounting is exact, trial by
// trial: the reference runs every trial that reaches the kernel, whole from
// Reset; a normal trial that makes no kernel run is one the reference
// records fired false (an injection) or Masked (a strike); one that runs
// fires, starts at ResumePoint(tick), stops — if it converges — at a resume
// point past its tick as Masked or SDC, and executes the reference's ticks
// less those before its start and after its stop. Every stratum LiveAt
// reports must be hit by a trial that ran, and each lever a kernel has must
// be pulled; at full size the trials must end in crashes and in hangs too.
// Each kernel logs one line: the share of injections decided, of runs
// converged, the ticks executed against the reference's, the strikes
// decided, and the trials that crashed or hung.
func TestLeversMatchReference(t *testing.T) {
	ref, normal := bench.NewReferenceRunners(), bench.NewRunners()
	var crashed, hung atomic.Int64
	t.Cleanup(func() {
		if !testing.Short() && (crashed.Load() == 0 || hung.Load() == 0) {
			t.Errorf("the trials hold %d crashes and %d hangs, want some of each", crashed.Load(), hung.Load())
		}
	})
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scan := bench.NewRunners()
			defer scan.Close()
			for range 1 + strikeScan*len(phi.DeviceNames()) {
				scan.Expect(name, 1)
			}
			sw, sr := watchedRunner(t, scan, name)
			l := newLevers(sr)
			decided, err := decidedStrikes(name, scan, sw, listSizes().decided)
			if err != nil {
				t.Fatal(err)
			}
			plans := append(l.plans(), decided...)
			for _, p := range plans {
				if p.kind == beamStrike {
					ref.Expect(name, 1)
					normal.Expect(name, 1)
				}
			}
			ref.Expect(name, 1) // watchedRunner's Get
			normal.Expect(name, 1)
			rw, rr := watchedRunner(t, ref, name)
			nw, nr := watchedRunner(t, normal, name)
			var (
				wg              sync.WaitGroup
				wants, gots     []trial
				wantErr, gotErr error
			)
			wg.Add(2)
			go func() { defer wg.Done(); wants, wantErr = runPlans(name, ref, rw, rr, plans) }()
			go func() { defer wg.Done(); gots, gotErr = runPlans(name, normal, nw, nr, plans) }()
			wg.Wait()
			if wantErr != nil || gotErr != nil {
				t.Fatalf("reference: %v; normal: %v", wantErr, gotErr)
			}
			c, h := checkLevers(t, l, rw, plans, wants, gots)
			crashed.Add(int64(c))
			hung.Add(int64(h))
		})
	}
}

// describe names a plan in a failure.
func (p plan) describe() string {
	switch p.kind {
	case injectTrial:
		return fmt.Sprintf("InjectOne(%s, stream %#x) by %s, delays below %d", p.model, p.seed, p.policy, p.maxDelay)
	case beamStrike:
		return fmt.Sprintf("strike %d on %s (ECC off: %v)", p.seed, p.device, p.noECC)
	}
	return fmt.Sprintf("%s (%s) corrupted at tick %d by %s, delay %d, stream %#x", p.victim.Name, p.stratum, p.tick, p.model, p.delay, p.seed)
}

// checkLevers holds one kernel's normal trials to its reference trials and
// returns how many crashed and how many hung.
func checkLevers(t *testing.T, l *levers, w *watched, plans []plan, wants, gots []trial) (crashed, hung int) {
	t.Helper()
	r := l.r
	var injections, decided, reached, strikesDecided, ran, resumed, converged int
	var refTicks, ticks, before, after int
	hit := map[stratum]bool{}
	for i, p := range plans {
		want, got := wants[i], gots[i]
		tick, masked := p.tick, true
		switch want.end.Status {
		case bench.Crashed:
			crashed++
		case bench.Hung:
			hung++
		}
		switch want.inj.Outcome + want.beam.Outcome {
		case bench.DUECrash.String():
			crashed++
		case bench.DUEHang.String():
			hung++
		}
		switch p.kind {
		case injectTrial:
			if !reflect.DeepEqual(got.inj, want.inj) {
				t.Fatalf("%s:\n normal    %+v\n reference %+v", p.describe(), got.inj, want.inj)
			}
			injections++
			tick, masked = got.inj.Tick, got.inj.Outcome == bench.Masked.String()
		case beamStrike:
			if got.beam != want.beam {
				t.Fatalf("%s:\n normal    %+v\n reference %+v", p.describe(), got.beam, want.beam)
			}
			tick, masked = got.beam.Tick, got.beam.Outcome == bench.Masked.String()
		case direct:
			if !reflect.DeepEqual(got.at, want.at) {
				t.Fatalf("%s: the run finds another state at the tick than the reference's: %s", p.describe(), diffDigests(got.at, want.at))
			}
			if !reflect.DeepEqual(got.end, want.end) || got.def != want.def {
				t.Fatalf("%s:\n normal    %+v %+v\n reference %+v %+v", p.describe(), got.end, got.def, want.end, want.def)
			}
		}
		// The reference runs every trial that reaches the kernel, whole.
		runs := 1
		if p.kind == beamStrike && !reachesKernel(want.beam) {
			runs = 0
		}
		if len(want.runs) != runs || runs == 1 && (want.runs[0].start != 0 || want.runs[0].converged >= 0) {
			t.Fatalf("%s: the reference made the runs %+v, want %d whole", p.describe(), want.runs, runs)
		}
		if runs == 0 {
			continue
		}
		if p.kind == beamStrike {
			reached++
		}
		switch {
		case len(got.runs) > 1:
			t.Fatalf("%s: %d kernel runs", p.describe(), len(got.runs))
		case len(got.runs) == 0 && p.kind == direct:
			t.Fatalf("%s: made no kernel run", p.describe())
		case len(got.runs) == 0:
			// Decided: the reference's run corrupted nothing.
			if got.inj.Fired || !masked {
				t.Fatalf("%s: decided without a run, yet the reference's run fired (%v) or was %s %s", p.describe(), got.inj.Fired, got.inj.Outcome, got.beam.Outcome)
			}
			if p.kind == injectTrial {
				decided++
			} else {
				strikesDecided++
			}
			continue
		}
		g, ref := got.runs[0], want.runs[0]
		if p.kind == injectTrial && !got.inj.Fired {
			t.Fatalf("%s: ran the kernel and never fired", p.describe())
		}
		if g.start != r.ResumePoint(tick) {
			t.Fatalf("%s at tick %d: started at tick %d, want %d", p.describe(), tick, g.start, r.ResumePoint(tick))
		}
		stopped := 0
		if at := g.converged; at >= 0 {
			completed := got.end.Status == bench.Completed
			if p.kind != direct {
				completed = masked || got.inj.Outcome == bench.SDC.String() || got.beam.Outcome == bench.SDC.String()
			}
			if at <= tick || r.ResumePoint(at) != at || !completed {
				t.Fatalf("%s at tick %d: stopped at tick %d, not a resume point past it, or did not complete", p.describe(), tick, at)
			}
			converged++
			stopped = r.TotalTicks - at
		}
		if g.executed != ref.executed-g.start-stopped {
			t.Fatalf("%s: executed %d ticks from %d, the reference %d; %d after the stop", p.describe(), g.executed, g.start, ref.executed, stopped)
		}
		ran++
		if g.start > 0 {
			resumed++
		}
		refTicks, ticks, before, after = refTicks+ref.executed, ticks+g.executed, before+g.start, after+stopped
		if p.kind != beamStrike {
			hit[p.stratum] = true
		}
	}
	var missed []string
	for s := range l.strata() {
		if !hit[s] {
			missed = append(missed, s.String())
		}
	}
	slices.Sort(missed)
	if len(missed) > 0 {
		t.Errorf("%d strata LiveAt reports had no trial that ran: %s", len(missed), strings.Join(missed, "; "))
	}
	_, resumable := w.Benchmark.(bench.Resumable)
	_, convergent := w.Benchmark.(bench.Convergent)
	if decided == 0 || strikesDecided == 0 || resumable && resumed == 0 || convergent != (converged > 0) || converged == ran {
		t.Errorf("levers pulled: %d injections and %d strikes decided, %d runs resumed, %d of %d converged (resumable %v, convergent %v)",
			decided, strikesDecided, resumed, converged, ran, resumable, convergent)
	}
	t.Logf("%-7s %4d trials: %3d of %3d injections decided (%4.1f %%), %3d of %4d runs converged (%4.1f %%), %7d of the reference's %7d ticks executed (%4.1f %%; %d before resume points, %d after stops), %d of %d strikes reaching the kernel decided; %d crashed, %d hung",
		r.B.Name(), len(plans), decided, injections, pct(decided, injections), converged, ran, pct(converged, ran),
		ticks, refTicks, pct(ticks, refTicks), before, after, strikesDecided, reached, crashed, hung)
	return crashed, hung
}

func pct(a, b int) float64 { return 100 * float64(a) / float64(max(b, 1)) }

// TestHorizonBoundary holds the runner's loads-left table to the kernels one
// load at a time, below the injector: every armable cell of every kernel,
// armed at seeded ticks with one load less than the table says it has left,
// must fire, and armed with exactly that many must not, in a run that
// completes with the golden output — on a normal runner, which debits the
// loads before, and on a reference runner, which refuses the debits and
// performs them. An entry off by one in either direction fails one of the
// two. These are also the runs in which a cell stays armed to the end, which
// campaign trials do not contain.
func TestHorizonBoundary(t *testing.T) {
	normal, ref := bench.NewRunners(), bench.NewReferenceRunners()
	for _, name := range bench.Names() {
		var runners []*bench.Runner
		for _, rs := range []*bench.Runners{normal, ref} {
			rs.Expect(name, 1)
			r, err := rs.Get(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			runners = append(runners, r)
		}
		total := runners[0].TotalTicks
		rng := stats.NewRNG(11)
		cells, fires := 0, 0
		for _, tick := range []int{0, rng.Intn(total), rng.Intn(total), total - 1} {
			for _, v := range runners[0].LiveAt(tick) {
				if !v.Armable {
					continue
				}
				cells++
				for _, run := range runners {
					arm := func(delay int) (bench.RawResult, *state.Deferred) {
						var def *state.Deferred
						res := run.RunInjected(tick, func() {
							def = run.Site(v).(state.Armable).Arm(delay, fault.Random, stats.NewRNG(uint64(tick)))
						})
						return res, def
					}
					if v.LoadsLeft > 0 {
						fires++
						if _, def := arm(v.LoadsLeft - 1); !def.Fired {
							t.Fatalf("%s %s at tick %d (reference runner: %v): %d loads left, but a delay of %d never fired",
								name, v.Name, tick, run.Reference(), v.LoadsLeft, v.LoadsLeft-1)
						}
					}
					res, def := arm(v.LoadsLeft)
					if def.Fired || res.Status != bench.Completed || !bench.CompareExact(run.Golden, res.Output) {
						t.Fatalf("%s %s at tick %d (reference runner: %v): %d loads left, but a delay of %d fired (%v) or changed the run (%s %s)",
							name, v.Name, tick, run.Reference(), v.LoadsLeft, v.LoadsLeft, def.Fired, res.Status, res.PanicMsg)
					}
				}
			}
		}
		t.Logf("%s: %d (cell, tick) pairs hold on both runners, %d with loads left", name, cells, fires/2)
	}
}
