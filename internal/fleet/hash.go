package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
)

// CanonicalHash returns the sweep's content address: the lowercase hex
// SHA-256 of its canonical spec bytes. It is the cache key of the sweep
// service — campaigns are bit-deterministic functions of their spec, so
// two sweeps with equal hashes produce byte-identical merged artifacts
// and one can be served for the other with zero compute.
//
// "Canonical" means the hash covers exactly the result's identity and
// nothing else:
//
//   - the spec is normalized first, so a defaulted field and its explicit
//     default value hash identically (an empty Models list and all four
//     models spelled out are the same sweep);
//   - Workers is zeroed, because pool size never changes a result (the
//     engine's worker-independence contract, the same reason
//     MergeSweepResults ignores it when comparing shard specs);
//   - the execution hooks (Progress, ObserveInjection, ObserveBeam) are
//     never serialised.
//
// The resulting bytes are the WriteSpec encoding of that canonical form,
// so the hash is stable across WriteSpec/ReadSpec round-trips. The exact
// hash values are a contract, locked by golden-vector tests: changing the
// spec encoding or the normalization rules is a cache-invalidating event
// and must be deliberate.
//
// Note that normalization resolves registry-backed defaults (benchmark
// lists, devices), so a defaulted sweep's hash legitimately changes when
// the registered grid changes — its results change too. Fully explicit
// specs hash the same forever.
func (s Sweep) CanonicalHash() string {
	return hashSpec(s.normalized().identity())
}

// identity returns s without the execution details that are no part of a
// result's identity: the pool size and the execution hooks. Two normalised
// specs describe the same sweep exactly when their identities are deeply
// equal.
func (s Sweep) identity() Sweep {
	s = s.unhooked()
	s.Workers = 0
	return s
}

// unhooked returns s without its execution hooks, the spec a result
// records: a func is deeply equal to nothing but nil.
func (s Sweep) unhooked() Sweep {
	s.Progress, s.ObserveInjection, s.ObserveBeam = nil, nil, nil
	return s
}

// CanonicalHashBase returns the sweep's range-normalized identity: the
// canonical hash with the trial-count fields (N, BeamRuns) zeroed after
// normalization. Two sweeps share a base hash exactly when they run the
// same grid — same cells, same per-cell seeds, same workload inputs — and
// differ at most in how many trials of each cell they ask for. Because
// trial i of any cell always seeds from the same stream regardless of N
// (the global trial index space of PR 3), a sweep is a strict prefix of
// every larger sweep with the same base: base-equal cached artifacts can
// serve the covered prefix of a request bit-identically, with only the
// missing trial ranges computed fresh.
//
// Normalization runs first with the real N/BeamRuns, so registry-backed
// defaults resolve exactly as they do for CanonicalHash; in particular an
// injection-only and a beam-carrying sweep never share a base, because
// their normalized grids differ. Like CanonicalHash, the exact values are
// a contract locked by golden-vector tests: the base hash is the overlap
// index key of the sweep service's artifact cache.
func (s Sweep) CanonicalHashBase() string {
	c := s.normalized().identity()
	c.N = 0
	c.BeamRuns = 0
	return hashSpec(c)
}

// hashSpec hashes the canonical WriteSpec encoding of an already-reduced
// spec — the shared tail of CanonicalHash and CanonicalHashBase.
func hashSpec(c Sweep) string {
	var b strings.Builder
	if err := c.WriteSpec(&b); err != nil {
		// A Sweep is plain data — slices of strings and integers — whose
		// JSON encoding cannot fail; an error here means the type itself
		// was broken.
		panic("fleet: canonical spec encoding failed: " + err.Error())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
