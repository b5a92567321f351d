package bench

import "fmt"

// watchdogFired is the sentinel panic value raised when the work budget is
// exhausted; the Runner classifies it as DUE-hang.
type watchdogFired struct {
	work, budget int64
}

// String deliberately omits the exact work counter: run records carry the
// budget that was exceeded, not by how much.
func (w watchdogFired) String() string {
	return fmt.Sprintf("watchdog: work budget %d exceeded", w.budget)
}

// Ctx is the supervisor context threaded through one benchmark run. A run
// never leaves the goroutine that called Runner.run: Tick fires at quiescent
// points between sections, and ParallelFor runs a section's lanes one after
// another on the caller, so nothing here is synchronised.
type Ctx struct {
	tick     int
	injectAt int
	inject   func()
	injected bool
	// probe, when set, sees every tick where the inject callback would:
	// the horizon's profiling run records the quiescent state through it.
	probe func(tick int)

	work   int64
	budget int64 // 0 = unlimited (golden runs)

	// section state for ParallelFor
	lanes    []int64 // per-lane work of the current section
	laneBase int64   // flushed work at current section start
}

// newCtx builds a context. injectAt < 0 disables injection; budget <= 0
// disables the watchdog.
func newCtx(injectAt int, inject func(), budget int64) *Ctx {
	return &Ctx{injectAt: injectAt, inject: inject, budget: budget}
}

// Tick marks one instrumentation point. When the scheduled injection tick is
// reached the injection callback fires exactly once, with the benchmark
// quiescent — the analog of CAROL-FI interrupting the program and running
// the flip-script.
func (c *Ctx) Tick() {
	if c.probe != nil {
		c.probe(c.tick)
	}
	if c.tick == c.injectAt && c.inject != nil && !c.injected {
		c.injected = true
		c.inject()
	}
	c.tick++
}

// Ticks returns the number of ticks elapsed.
func (c *Ctx) Ticks() int { return c.tick }

// Injected reports whether the scheduled injection has fired.
func (c *Ctx) Injected() bool { return c.injected }

// Work accounts n units of benchmark work (typically inner-loop trips).
// When the cumulative work exceeds the budget it panics with the watchdog
// sentinel, making hangs deterministic instead of wall-clock dependent.
//
// Idiom: reserve budget *before* entering any loop whose trip count derives
// from a corruptible cell (ctx.Work(int64(bound)); for i := 0; i < bound ...)
// — accounting after the loop would let a corrupted bound spin forever
// before the watchdog sees it.
func (c *Ctx) Work(n int64) {
	c.work += n
	if c.budget > 0 && c.work > c.budget {
		panic(watchdogFired{work: c.work, budget: c.budget})
	}
}

// WorkDone returns the cumulative accounted work.
func (c *Ctx) WorkDone() int64 { return c.work }

// WorkLane is the lane-local form of Work for bodies running inside
// ParallelFor: it accumulates into the lane's own counter and checks the
// budget against the work flushed before the section plus this lane's own
// contribution, as if the section's lanes ran side by side. The counters are
// flushed into the total when the section ends (see ParallelFor), so
// WorkDone is unchanged; the per-lane check keeps the reserve-before-loop
// idiom prompt (a corrupted bound still trips the watchdog at the reserve),
// and its trip decision never depends on what the other lanes did.
func (c *Ctx) WorkLane(w int, n int64) {
	c.lanes[w] += n
	if c.budget > 0 && c.laneBase+c.lanes[w] > c.budget {
		panic(watchdogFired{work: c.laneBase + c.lanes[w], budget: c.budget})
	}
}

// ParallelFor runs body over [0,n) split into contiguous chunks, one per
// lane — the OpenMP `parallel for (static)` analog the ported benchmarks
// use. The lanes model the Phi's threads (each owns its control cells and
// its chunk); they run in lane order on the calling goroutine, because
// every caller already keeps all cores busy with whole trials.
//
// A panic inside a lane (index error from a corrupted bound, watchdog,
// explicit invariant) does not stop the section: the later lanes still run,
// as threads that had already started would, then every lane's WorkLane
// total is flushed into WorkDone and the lowest panicking lane's value is
// re-raised. When no lane panicked but the flushed total exceeds the budget
// (cross-lane accumulation that no single lane's WorkLane check could see),
// the watchdog fires at the section boundary.
func (c *Ctx) ParallelFor(workers, n int, body func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	if len(c.lanes) < workers {
		c.lanes = make([]int64, workers)
	}
	clear(c.lanes[:workers])
	c.laneBase = c.work
	chunk := (n + workers - 1) / workers
	var raised any
	for w := 0; w*chunk < n; w++ {
		if r := runLane(body, w, w*chunk, min((w+1)*chunk, n)); r != nil && raised == nil {
			raised = r
		}
	}
	for _, w := range c.lanes[:workers] {
		c.work += w
	}
	if raised != nil {
		panic(raised)
	}
	if c.budget > 0 && c.work > c.budget {
		panic(watchdogFired{work: c.work, budget: c.budget})
	}
}

// runLane runs one lane's chunk and returns what it panicked with, if
// anything.
func runLane(body func(worker, start, end int), w, start, end int) (raised any) {
	defer func() { raised = recover() }()
	body(w, start, end)
	return nil
}
