// Package bench defines the benchmark abstraction and the execution
// supervisor shared by the CAROL-FI campaign (internal/core) and the beam
// campaign (internal/beam).
//
// A Benchmark is a deterministic parallel workload whose entire mutable
// state lives in corruptible cells and buffers (internal/state). The
// supervisor runs it cooperatively: the workload calls Ctx.Tick at
// instrumentation points (typically once per outer iteration), which is
// where fault injection fires, and Ctx.Work inside loops, which implements a
// deterministic watchdog — the analog of CAROL-FI's kill-after-timeout, but
// reproducible across machines.
//
// A Runner is a benchmark instance with its golden run done. Runners is
// the free list a sweep run keeps them in, so that its cells — of both
// campaign classes, across checkpoint chunks — share golden runs.
package bench

import (
	"fmt"
	"sort"
	"sync"

	"phirel/internal/state"
)

// Class groups benchmarks by algorithmic family; the paper argues fault-model
// behaviour is similar within a class (§6, LUD vs DGEMM).
type Class int

const (
	Algebraic Class = iota // DGEMM, LUD
	Stencil                // HotSpot
	NBody                  // LavaMD
	DynProg                // NW
	AMR                    // CLAMR
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Algebraic:
		return "algebraic"
	case Stencil:
		return "stencil"
	case NBody:
		return "n-body"
	case DynProg:
		return "dynamic-programming"
	case AMR:
		return "amr"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Output is a benchmark result in canonical form: a float64 view of the
// output array(s) with a logical shape. Integer outputs are converted
// exactly (they are far below 2^53). Exact marks outputs where any numeric
// difference is a mismatch regardless of tolerance semantics (integer DP
// scores).
type Output struct {
	Vals  []float64
	Shape state.Dims
	Exact bool
}

// Clone deep-copies the output (goldens must not alias live buffers).
func (o Output) Clone() Output {
	c := o
	c.Vals = append([]float64(nil), o.Vals...)
	return c
}

// OutputInto is implemented by benchmarks that can write their canonical
// output into a caller-provided buffer. The Runner uses it to reuse one
// buffer across injected runs instead of allocating a fresh output slice
// per trial. dst may be nil or too small; implementations grow it with
// GrowVals and return the buffer they actually filled.
type OutputInto interface {
	OutputInto(dst []float64) Output
}

// GrowVals returns dst resized to n elements, reallocating only when its
// capacity is insufficient. Contents are unspecified; callers overwrite
// every element (or zero it first for sparse writers).
func GrowVals(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// Benchmark is one injectable workload.
type Benchmark interface {
	// Name returns the paper's benchmark name (e.g. "DGEMM").
	Name() string
	// Class returns the algorithmic family.
	Class() Class
	// Windows returns the number of execution-time windows the paper uses
	// for this benchmark (CLAMR 9, DGEMM/HotSpot 5, LUD/NW 4, LavaMD 5).
	Windows() int
	// Registry exposes the live injection sites.
	Registry() *state.Registry
	// Reset restores pristine inputs and working state so the next Run
	// starts from identical conditions. It must also discard any frames a
	// previous aborted run left pushed.
	Reset()
	// Run executes the workload under the supervisor context. It must call
	// ctx.Tick at instrumentation points and ctx.Work inside loops whose
	// bounds come from corruptible cells.
	Run(ctx *Ctx)
	// Output returns the canonical result of the last completed Run.
	Output() Output
}

// Constructor builds a fresh benchmark instance. The seed determinises
// input generation; instances built with equal seeds are identical.
type Constructor func(seed uint64) Benchmark

var (
	regMu        sync.RWMutex
	constructors = map[string]Constructor{}
)

// Register makes a benchmark available by name; called from each workload
// package's init (database/sql-driver style). Registering a duplicate name
// panics.
func Register(name string, c Constructor) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := constructors[name]; dup {
		panic(fmt.Sprintf("bench: duplicate benchmark %q", name))
	}
	constructors[name] = c
}

// Unregister removes the benchmark registered under name. It is for tests
// that register a counting or failing benchmark and must not leave it in
// Names — the default grid of every sweep — for the tests that follow.
func Unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(constructors, name)
}

// New builds a registered benchmark.
func New(name string, seed uint64) (Benchmark, error) {
	regMu.RLock()
	c, ok := constructors[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q (imported?)", name)
	}
	return c(seed), nil
}

// Has reports whether name is a registered benchmark. Orchestrators use it
// to validate a whole sweep spec before spinning up a worker pool.
func Has(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := constructors[name]
	return ok
}

// Names returns the registered benchmark names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(constructors))
	for n := range constructors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
