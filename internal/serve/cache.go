package serve

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"time"

	"phirel/internal/fleet"
)

// cacheInfo is the overlap index's view of one complete on-disk artifact:
// enough of its identity to answer "how many of this request's trials
// would it serve as a prefix" without re-reading the file. The index is
// rebuilt by scanning cacheDir at startup and maintained incrementally as
// artifacts are stored and evicted.
type cacheInfo struct {
	hash, base       string
	injN, beamN      int
	cells, beamCells int
	size             int64
	// lastUsed orders LRU eviction: a monotonic use sequence, bumped on
	// every store, hit, or overlap reuse.
	lastUsed int64
}

// newCacheInfo describes the artifact of size bytes stored under hash,
// whose spec is sp and whose spec's CanonicalHashBase is base.
func newCacheInfo(hash, base string, sp fleet.Sweep, size int64) *cacheInfo {
	return &cacheInfo{
		hash: hash, base: base,
		injN: sp.N, beamN: sp.BeamRuns,
		cells: len(sp.Cells()), beamCells: len(sp.BeamCells()),
		size: size,
	}
}

// trials is the cell-weighted trial count the artifact serves as a cached
// prefix — the quantity the overlap planner maximises and the stats
// counters report.
func (c *cacheInfo) trials() int { return c.cells*c.injN + c.beamCells*c.beamN }

// specTrials is the same cell-weighted count for a request spec.
func specTrials(sp fleet.Sweep) int {
	return len(sp.Cells())*sp.N + len(sp.BeamCells())*sp.BeamRuns
}

// cacheFileRe matches content-addressed artifact file names: the canonical
// hash is lowercase hex SHA-256.
var cacheFileRe = regexp.MustCompile(`^[0-9a-f]{64}\.json$`)

// scanCache rebuilds the overlap index from cacheDir — called once at New,
// so a restarted server resumes partial-overlap serving for every artifact
// an earlier process computed. Unparseable or mislabelled files are skipped
// (loadCached would refuse them anyway), never deleted.
func (s *Server) scanCache() {
	if s.cacheDir == "" {
		return
	}
	dirents, err := os.ReadDir(s.cacheDir)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logf("serve: cache scan: %v", err)
		}
		return
	}
	n := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, de := range dirents {
		if de.IsDir() || !cacheFileRe.MatchString(de.Name()) {
			continue
		}
		hash := strings.TrimSuffix(de.Name(), ".json")
		artifact, res, ok := s.loadCached(hash)
		if !ok {
			continue
		}
		s.indexAdd(newCacheInfo(hash, res.Spec.CanonicalHashBase(), res.Spec, int64(len(artifact))))
		n++
	}
	if n > 0 {
		s.logf("serve: overlap index holds %d cached artifact(s)", n)
	}
}

// indexAdd records a complete on-disk artifact in the overlap index as
// just used, replacing an earlier record of its hash. Callers hold s.mu.
func (s *Server) indexAdd(info *cacheInfo) {
	s.indexDrop(info.hash)
	s.useSeq++
	info.lastUsed = s.useSeq
	s.index[info.hash] = info
	s.cacheBytes += info.size
}

// indexDrop forgets hash's record, if any. Callers hold s.mu.
func (s *Server) indexDrop(hash string) {
	info, ok := s.index[hash]
	if !ok {
		return
	}
	delete(s.index, hash)
	s.cacheBytes -= info.size
}

// touch marks hash as just-used for LRU purposes. Callers hold s.mu.
func (s *Server) touch(hash string) {
	if info, ok := s.index[hash]; ok {
		s.useSeq++
		info.lastUsed = s.useSeq
	}
}

// bestOverlap selects the cached artifact that saves the most trials of
// spec: base-equal, covering a strict prefix (injN ≤ N, beamN ≤ BeamRuns,
// not both equal — that is the exact-hit path), maximising the
// cell-weighted trials served, ties broken by lexicographically smallest
// hash so the choice is deterministic. base is spec's CanonicalHashBase.
// Callers hold s.mu.
func (s *Server) bestOverlap(base string, spec fleet.Sweep) *cacheInfo {
	reqN, reqBeam := spec.N, spec.BeamRuns
	var best *cacheInfo
	for _, info := range s.index {
		if info.base != base || info.injN > reqN || info.beamN > reqBeam {
			continue
		}
		if info.injN == reqN && info.beamN == reqBeam {
			continue // same trial counts + same base = same hash: exact hit, handled earlier
		}
		if info.trials() == 0 {
			continue
		}
		if best == nil || info.trials() > best.trials() ||
			(info.trials() == best.trials() && info.hash < best.hash) {
			best = info
		}
	}
	return best
}

// evictLocked enforces the cache size bound: while the on-disk total
// exceeds cacheMaxBytes, the least-recently-used artifact is removed —
// file, index entry, and resident sweep entry together, so a later GET for
// the evicted id 404s cleanly instead of serving memory the disk no longer
// backs. An entry whose job has not ended — one its seal is storing right
// now — is never a victim. Callers hold s.mu.
func (s *Server) evictLocked() {
	if s.cacheMaxBytes <= 0 {
		return
	}
	for s.cacheBytes > s.cacheMaxBytes {
		var victim *cacheInfo
		for hash, info := range s.index {
			if e, ok := s.sweeps[hash]; ok && !e.jobStatus().State.Terminal() {
				continue
			}
			if victim == nil || info.lastUsed < victim.lastUsed {
				victim = info
			}
		}
		if victim == nil {
			return // everything evictable is gone; the bound is best-effort
		}
		if err := os.Remove(s.cachePath(victim.hash)); err != nil && !os.IsNotExist(err) {
			s.logf("serve: evicting %.12s: %v", victim.hash, err)
			// Fall through: dropping the index entry anyway keeps the loop
			// from spinning on an unremovable file.
		}
		s.indexDrop(victim.hash)
		s.dropLocked(victim.hash)
		s.stats.Evictions++
		s.logf("serve: evicted %.12s (%d bytes) from the artifact cache", victim.hash, victim.size)
	}
}

// Stats is the service's cumulative cache economics, served at /v1/stats.
// Hit/miss classification happens at POST time; trial counters credit
// cached trials when a request is answered or planned from cache and count
// computed trials when a job's fresh ranges actually finish, so a failed
// job never inflates the savings.
type Stats struct {
	// Submissions counts every POST /v1/sweeps with a parseable spec.
	Submissions int64 `json:"submissions"`
	// FullHits: requests answered entirely from cache (or an already-done
	// resident sweep) with zero compute.
	FullHits int64 `json:"fullHits"`
	// PartialHits: requests planned as overlap jobs — cached prefix plus
	// freshly computed remainder.
	PartialHits int64 `json:"partialHits"`
	// Misses: requests computed from scratch.
	Misses int64 `json:"misses"`
	// Coalesced: requests that joined an in-flight job.
	Coalesced int64 `json:"coalesced"`
	// TrialsFromCache and TrialsComputed are cell-weighted trial counts
	// (cells × per-cell trials, both cell kinds) served from cached
	// artifacts vs computed by workers.
	TrialsFromCache int64 `json:"trialsFromCache"`
	TrialsComputed  int64 `json:"trialsComputed"`
	// TrialsResumed and TrialsStolen total, across every finished job, the
	// cell-weighted trials salvaged by checkpoint resume and straggler
	// re-splitting. Zero when the scheduler runs without elastic execution.
	TrialsResumed int64 `json:"trialsResumed"`
	TrialsStolen  int64 `json:"trialsStolen"`
	// Evictions counts artifacts removed by the size bound.
	Evictions int64 `json:"evictions"`
	// CacheEntries and CacheBytes snapshot the on-disk cache extent.
	CacheEntries int64 `json:"cacheEntries"`
	CacheBytes   int64 `json:"cacheBytes"`
	// ResidentEntries and ResidentBytes snapshot the resident set: the
	// sweeps this process holds in memory, in any state, and the artifact
	// bytes the done ones keep — the only copy of a finished sweep it holds.
	ResidentEntries int64 `json:"residentEntries"`
	ResidentBytes   int64 `json:"residentBytes"`
}

// StatsSnapshot returns the current counters.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CacheEntries, st.CacheBytes = int64(len(s.index)), s.cacheBytes
	st.ResidentEntries, st.ResidentBytes = int64(len(s.sweeps)), s.residentBytes
	return st
}

// AdmissionRecord is one JSONL line of the admission log: the identity and
// cache outcome of every POST, the evidence trail for the cache's
// reuse-over-recompute economics.
type AdmissionRecord struct {
	Time string `json:"time"`
	// Hash and Base are the spec's canonical and range-normalized content
	// addresses.
	Hash string `json:"hash"`
	Base string `json:"base"`
	// Outcome is full | partial | miss | coalesced.
	Outcome string `json:"outcome"`
	// Prefix is the cached artifact serving the covered prefix of a
	// partial admission.
	Prefix string `json:"prefix,omitempty"`
	// TrialsFromCache and TrialsComputed are the admission's cell-weighted
	// split of served vs to-be-computed trials.
	TrialsFromCache int `json:"trialsFromCache"`
	TrialsComputed  int `json:"trialsComputed"`
}

// admissionLog appends one JSON object per admission to a file. Writes are
// serialised; failures disable the log after one complaint rather than
// failing requests.
type admissionLog struct {
	logf func(format string, args ...any)

	mu   sync.Mutex
	path string
	f    *os.File
	enc  *json.Encoder
	dead bool
}

func (l *admissionLog) record(rec AdmissionRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return
	}
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.logf("serve: admission log disabled: %v", err)
			l.dead = true
			return
		}
		l.f, l.enc = f, json.NewEncoder(f)
	}
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	if err := l.enc.Encode(rec); err != nil {
		l.logf("serve: admission log disabled: %v", err)
		l.dead = true
		l.f.Close()
		l.f = nil
	}
}

// etagMatches reports whether an If-None-Match header value matches etag
// (a quoted strong ETag): a "*", or any listed tag equal to it, weak
// comparison (a W/ prefix on either side is ignored — RFC 9110 §8.8.3.2,
// the comparison If-None-Match requires).
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}
