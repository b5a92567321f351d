// Package serve exposes the fleet's sweep machinery as a resident HTTP
// service — sweeps as a service, the form the ROADMAP's "heavy traffic"
// north star needs. It sits on distrib.Scheduler (job queue, shared
// concurrency budget, per-job cancellation) and adds the property that
// makes serving at scale cheap: a content-addressed artifact cache.
// Specs are canonical (fleet.WriteSpec) and campaigns bit-deterministic,
// so fleet.Sweep.CanonicalHash is a true content address — two requests
// with the same canonical spec are the *same sweep*, and the second is
// served from cache with zero compute, byte-identical to the first.
// Identical concurrent submissions coalesce onto one in-flight job
// (singleflight), so a thundering herd asking one question costs one
// campaign. The job is a sweep's one state record: its seal freezes,
// stores and indexes the artifact before the job reads done, so a sweep
// reported done is always servable.
//
// # Partial-overlap reuse
//
// Beyond exact hits, the cache serves *overlapping* sweeps. The
// range-normalized base hash (fleet.Sweep.CanonicalHashBase — the
// canonical hash with the trial counts N and BeamRuns zeroed) groups
// sweeps that ask the same question at different sample sizes, and the
// global trial index space makes a smaller same-base sweep a bit-identical
// prefix of a larger one. On a miss, the overlap planner picks the
// base-equal cached artifact saving the most cell-weighted trials, mounts
// it as shard 0 of the job (the cached argument of distrib.Scheduler's
// Submit), and workers compute only the missing trial ranges;
// the folded artifact is byte-identical to a monolithic run. So growing an
// N-trial sweep to 2N costs N fresh trials, not 2N.
//
// The cache is size-bounded (WithCacheMaxBytes) with LRU eviction — an
// evicted id 404s cleanly — and observable: WithAdmissionLog appends one
// AdmissionRecord JSON line per POST, and GET /v1/stats serves the
// cumulative hit/miss/trial counters.
//
// # HTTP API contract
//
// Sweep IDs are canonical spec hashes (fleet.Sweep.CanonicalHash): the
// URL space is content-addressed, and execution details like Workers
// never mint new IDs.
//
//	POST /v1/sweeps
//	    Body: a canonical sweep spec (fleet.WriteSpec JSON; unknown
//	    fields rejected). Responses: 202 + Status JSON when a new job was
//	    submitted (partial:true when it is an overlap job computing only
//	    the ranges a cached prefix is missing); 200 + Status JSON when
//	    the request coalesced onto an in-flight job or hit the artifact
//	    cache. 400 for a body that is not a spec, 413 for a body over
//	    1 MiB, 422 for a spec the scheduler cannot plan.
//	    A sweep that previously failed or was cancelled is resubmitted.
//	GET /v1/sweeps
//	    200 + JSON array of Status, in first-submission order.
//	GET /v1/sweeps/{id}
//	    200 + Status JSON; 404 for an unknown id.
//	GET /v1/sweeps/{id}/result
//	    200 + the merged SweepResult artifact, byte-identical across
//	    repeated requests and across cache hits (ETag is the sweep id);
//	    304 when If-None-Match matches the ETag; 404 unknown, 409 while
//	    the sweep is still queued/running, 410 cancelled, 502 failed.
//	GET /v1/sweeps/{id}/events
//	    Server-sent events: "progress" events carrying distrib.Event
//	    JSON (fan-out-wide done/total) as workers report, interleaved
//	    with periodic "monitor" events carrying monitor.Snapshot JSON
//	    (re-emitted as shard partials land, and once more — from the
//	    merged result — right before the terminal event), then one
//	    terminal "done" event carrying the final Status JSON. A finished
//	    sweep replays its terminal event immediately.
//	GET /v1/sweeps/{id}/figures
//	    200 + the rendered paper tables/figures for a done sweep
//	    (figures.SweepGroups as JSON; ?format=text for ASCII tables).
//	    Same non-done codes as /result.
//	GET /v1/sweeps/{id}/monitor
//	    200 + the current rolling FIT/MTBF snapshot (monitor.Snapshot
//	    JSON wrapped with the sweep id and state). Live sweeps fold the
//	    partials their job has validated so far, a partial sweep's cached
//	    prefix included (zero trials before the first shard finishes);
//	    done sweeps fold the merged artifact, which equals the post-hoc
//	    analysis fit exactly. 410 cancelled, 502 failed.
//	DELETE /v1/sweeps/{id}
//	    Cancels the sweep's job (204); cancelling a finished sweep is a
//	    no-op (204), unknown ids 404.
//	GET /v1/stats
//	    200 + Stats JSON: submissions, full/partial hits, misses,
//	    coalesced joins, trials served from cache vs computed, evictions,
//	    the cache's on-disk extent (cacheEntries, cacheBytes), and the
//	    resident set: the sweeps the process holds (residentEntries) and
//	    the artifact bytes they keep in memory (residentBytes): a done
//	    sweep is held as its artifact bytes alone, which /figures and
//	    /monitor decode when asked.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"phirel/internal/distrib"
	"phirel/internal/figures"
	"phirel/internal/fleet"
)

// Status is the service's view of one sweep.
type Status struct {
	// ID is the sweep's content address: the canonical spec hash.
	ID string `json:"id"`
	// State is queued | running | done | failed | cancelled.
	State string `json:"state"`
	// Cached reports the artifact was served from the content-addressed
	// cache without computing anything in this process.
	Cached bool `json:"cached"`
	// Partial reports an overlap job: a base-equal cached artifact served
	// the prefix named by Prefix, and only the missing trial ranges were
	// computed.
	Partial bool `json:"partial,omitempty"`
	// Prefix is the canonical hash of the cached artifact serving the
	// covered prefix of a partial sweep.
	Prefix string `json:"prefix,omitempty"`
	// TrialsFromCache and TrialsComputed split the sweep's cell-weighted
	// trials between the cached prefix and fresh compute.
	TrialsFromCache int `json:"trialsFromCache,omitempty"`
	TrialsComputed  int `json:"trialsComputed,omitempty"`
	// TrialsResumed counts cell-weighted trials salvaged from shard
	// checkpoints when crashed or preempted workers were relaunched;
	// TrialsStolen counts trials re-split off cancelled stragglers. Both are
	// zero unless the scheduler runs with checkpointing/stealing armed.
	TrialsResumed int64 `json:"trialsResumed,omitempty"`
	TrialsStolen  int64 `json:"trialsStolen,omitempty"`
	// Coalesced is set on POST responses that joined an already-in-flight
	// job instead of starting a new one.
	Coalesced bool `json:"coalesced,omitempty"`
	// Done and Total count grid cells across the sweep's whole fan-out.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the failure text of a failed sweep.
	Error string `json:"error,omitempty"`
	// Links are the sweep's sub-resources.
	Links Links `json:"links"`
}

// Links are a sweep's sub-resource URLs.
type Links struct {
	Self    string `json:"self"`
	Result  string `json:"result"`
	Events  string `json:"events"`
	Figures string `json:"figures"`
	Monitor string `json:"monitor"`
}

func linksFor(id string) Links {
	base := "/v1/sweeps/" + id
	return Links{
		Self: base, Result: base + "/result", Events: base + "/events",
		Figures: base + "/figures", Monitor: base + "/monitor",
	}
}

// entry is one sweep the server knows about: an in-flight job, a finished
// one, or an artifact resurrected from the cache. It holds request facts
// only; the sweep's state is its job's. artifact is written once, by the
// job's seal before the job reads done, and read only after jobStatus
// reports done, so no lock guards it.
type entry struct {
	hash   string
	cached bool         // artifact came from the cache, no compute here
	job    *distrib.Job // nil for pure cache hits

	// partial marks an overlap job: prefix (the cached artifact's hash)
	// served cacheTrials of the request from disk, and only freshTrials
	// are computed by workers. Set before the entry is published.
	partial     bool
	prefix      string
	cacheTrials int
	freshTrials int

	artifact []byte // exact WriteJSON bytes of the merged result, at exact capacity
}

// decode reads a done entry's artifact back into a result.
func (e *entry) decode() (*fleet.SweepResult, error) {
	return fleet.ReadJSON(bytes.NewReader(e.artifact))
}

// jobStatus is the entry's lifecycle position: a cache hit is done on
// arrival, and a job's is the job's own.
func (e *entry) jobStatus() distrib.JobStatus {
	if e.job == nil {
		return distrib.JobStatus{State: distrib.JobDone}
	}
	return e.job.Status()
}

// Server is the sweeps-as-a-service HTTP layer over one Scheduler.
type Server struct {
	sched *distrib.Scheduler
	// cacheDir, when non-empty, persists the content-addressed artifact
	// cache across restarts: one <hash>.json per sweep.
	cacheDir string
	// cacheMaxBytes, when positive, bounds the on-disk cache; exceeding it
	// evicts least-recently-used artifacts (see evictLocked).
	cacheMaxBytes int64
	admission     *admissionLog // nil when no admission log is configured
	logf          func(format string, args ...any)

	mu     sync.Mutex
	sweeps map[string]*entry
	order  []string
	// index is the overlap index: every complete on-disk artifact keyed by
	// canonical hash, searchable by base hash for prefix reuse. cacheBytes
	// totals their sizes, and residentBytes the artifact bytes sweeps holds.
	index         map[string]*cacheInfo
	cacheBytes    int64
	residentBytes int64
	useSeq        int64
	stats         Stats
}

// Option configures a Server.
type Option func(*Server)

// WithCacheDir persists the artifact cache in dir (created on demand), so
// a restarted server still serves every previously computed sweep with
// zero compute.
func WithCacheDir(dir string) Option {
	return func(s *Server) { s.cacheDir = dir }
}

// WithLogf routes service lifecycle lines (submissions, cache hits,
// completions) to logf.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithCacheMaxBytes bounds the persistent artifact cache to n bytes on
// disk; crossing the bound evicts least-recently-used artifacts (never an
// in-flight sweep's). Zero or negative means unbounded.
func WithCacheMaxBytes(n int64) Option {
	return func(s *Server) { s.cacheMaxBytes = n }
}

// WithAdmissionLog appends one JSON line per POST to path (see
// AdmissionRecord): hash, base hash, full/partial/miss/coalesced outcome,
// and the trials-from-cache vs trials-computed split.
func WithAdmissionLog(path string) Option {
	return func(s *Server) {
		if path != "" {
			s.admission = &admissionLog{path: path}
		}
	}
}

// New builds a Server over sched. The caller owns the scheduler's
// lifecycle (Close it after the HTTP server drains). When a cache
// directory is configured its artifacts are scanned into the overlap
// index, so partial-overlap serving resumes across restarts.
func New(sched *distrib.Scheduler, opts ...Option) *Server {
	s := &Server{
		sched:  sched,
		logf:   func(string, ...any) {},
		sweeps: map[string]*entry{},
		index:  map[string]*cacheInfo{},
	}
	for _, o := range opts {
		o(s)
	}
	if s.admission != nil {
		s.admission.logf = s.logf
	}
	s.scanCache()
	return s
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/figures", s.handleFigures)
	mux.HandleFunc("GET /v1/sweeps/{id}/monitor", s.handleMonitor)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// status snapshots an entry. coalesced decorates POST responses only.
func (s *Server) status(e *entry) Status {
	js := e.jobStatus()
	return Status{
		ID: e.hash, State: string(js.State), Cached: e.cached, Links: linksFor(e.hash),
		Partial: e.partial, Prefix: e.prefix,
		TrialsFromCache: e.cacheTrials, TrialsComputed: e.freshTrials,
		TrialsResumed: js.TrialsResumed, TrialsStolen: js.TrialsStolen,
		Done: js.Done, Total: js.Total, Error: js.Err,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxSpecBytes bounds the body of POST /v1/sweeps. A canonical spec is
// under 2 KB; the bound only keeps a client from making the service read
// without end.
const maxSpecBytes = 1 << 20

// handleSubmit is POST /v1/sweeps: parse the canonical spec, resolve its
// content address, and either join what already exists (in-flight job or
// cached artifact), plan a partial-overlap job around the best base-equal
// cached prefix, or submit a cold job. The sweeps map is the singleflight:
// the hash's first submitter creates the entry, everyone else finds it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := fleet.ReadSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	hash := spec.CanonicalHash()
	// base is the spec's CanonicalHashBase, computed where it is first
	// used: a miss plans with it, a hit needs it only for the admission log.
	var base string
	reqTrials := spec.Trials(spec.Whole())
	admit := func(outcome, prefix string, fromCache, computed int) {
		if s.admission == nil {
			return
		}
		if base == "" {
			base = spec.CanonicalHashBase()
		}
		s.admission.record(AdmissionRecord{
			Hash: hash, Base: base, Outcome: outcome, Prefix: prefix,
			TrialsFromCache: fromCache, TrialsComputed: computed,
		})
	}

	s.mu.Lock()
	s.stats.Submissions++
	if e, ok := s.sweeps[hash]; ok {
		// A failed or cancelled sweep is not an answer; resubmitting it is
		// the retry path. Anything else coalesces.
		st := s.status(e)
		if state := distrib.JobState(st.State); state == distrib.JobDone || !state.Terminal() {
			if state == distrib.JobDone {
				s.stats.FullHits++
				s.stats.TrialsFromCache += int64(reqTrials)
				s.touch(hash)
				st.Cached = true // no compute was spent on this request
			} else {
				s.stats.Coalesced++
				st.Coalesced = true
			}
			s.mu.Unlock()
			if st.Cached {
				admit("full", "", reqTrials, 0)
			} else {
				admit("coalesced", "", 0, 0)
			}
			s.logf("serve: sweep %.12s joined (%s)", hash, st.State)
			writeJSON(w, http.StatusOK, st)
			return
		}
		s.dropLocked(hash)
	}
	if artifact, _, ok := s.loadCached(hash); ok {
		e := &entry{hash: hash, cached: true, cacheTrials: reqTrials, artifact: artifact}
		s.addLocked(e)
		s.stats.FullHits++
		s.stats.TrialsFromCache += int64(reqTrials)
		s.touch(hash)
		s.mu.Unlock()
		s.logf("serve: sweep %.12s served from artifact cache", hash)
		admit("full", "", reqTrials, 0)
		writeJSON(w, http.StatusOK, s.status(e))
		return
	}

	// Partial overlap: the largest base-equal cached prefix turns this
	// miss into a job over only the missing trial ranges. A candidate
	// whose artifact no longer loads is dropped from the index and the
	// next-best tried, so a vanished file degrades to a cold miss, never
	// an error.
	var cached *fleet.SweepResult
	base = spec.CanonicalHashBase()
	best := s.bestOverlap(base, spec)
	for ; best != nil; best = s.bestOverlap(base, spec) {
		var ok bool
		if _, cached, ok = s.loadCached(best.hash); ok {
			break
		}
		s.indexDrop(best.hash)
	}
	var (
		e   *entry
		job *distrib.Job
	)
	for {
		e = &entry{hash: hash, freshTrials: reqTrials}
		if best != nil {
			e.partial, e.prefix = true, best.hash
			e.cacheTrials, e.freshTrials = best.trials, reqTrials-best.trials
		}
		if job, err = s.sched.Submit(spec, cached, s.seal(e, base)); err == nil || best == nil {
			break
		}
		// The planner refused what the index predicted (e.g. a stale
		// artifact rewritten mid-flight); recompute instead.
		s.logf("serve: overlap plan around %.12s failed: %v", best.hash, err)
		best, cached = nil, nil
	}
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	e.job = job
	s.addLocked(e)
	if e.partial {
		s.touch(best.hash)
		s.stats.PartialHits++
		s.stats.TrialsFromCache += int64(e.cacheTrials)
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if e.partial {
		s.logf("serve: sweep %.12s submitted as %s — partial overlap on %.12s (%d trials cached, %d to compute)",
			hash, job.ID(), best.hash, e.cacheTrials, e.freshTrials)
		admit("partial", best.hash, e.cacheTrials, e.freshTrials)
	} else {
		s.logf("serve: sweep %.12s submitted as %s (%d shards)", hash, job.ID(), s.sched.Options().Shards)
		admit("miss", "", 0, reqTrials)
	}
	writeJSON(w, http.StatusAccepted, s.status(e))
}

// seal is e's job's last step before it reads done: it freezes the merged
// artifact's bytes, fills the persistent cache and overlap index (under
// base, the job's spec's CanonicalHashBase), and credits the stats — so a
// client told "done" finds the result servable and the artifact mountable
// as a prefix, byte-identical forever. The entry keeps the bytes alone, at
// exact capacity; the merged result is unreachable once the seal returns.
func (s *Server) seal(e *entry, base string) func(*distrib.Job, *fleet.SweepResult) error {
	return func(job *distrib.Job, res *fleet.SweepResult) error {
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return err
		}
		e.artifact = bytes.Clone(buf.Bytes())
		s.storeCached(e.hash, base, e.artifact, res.Spec)
		js := job.Status()
		s.mu.Lock()
		s.residentBytes += int64(len(e.artifact))
		// Fresh compute is counted when it actually lands, so failed jobs
		// never inflate the savings ledger. Elastic salvage totals come from
		// the job's own counters at the same moment, for the same reason.
		s.stats.TrialsComputed += int64(e.freshTrials)
		s.stats.TrialsResumed += js.TrialsResumed
		s.stats.TrialsStolen += js.TrialsStolen
		s.mu.Unlock()
		s.logf("serve: sweep %.12s done (%d bytes)", e.hash, len(e.artifact))
		return nil
	}
}

// cachePath is the content-addressed artifact file for hash.
func (s *Server) cachePath(hash string) string {
	return filepath.Join(s.cacheDir, hash+".json")
}

// loadCached looks the hash up in the persistent cache. The artifact is
// revalidated on the way in — parseable, complete (not a shard partial),
// and actually addressed by this hash — so a corrupted or mislabelled
// cache file is recomputed, never served.
func (s *Server) loadCached(hash string) ([]byte, *fleet.SweepResult, bool) {
	if s.cacheDir == "" {
		return nil, nil, false
	}
	data, err := os.ReadFile(s.cachePath(hash))
	if err != nil {
		return nil, nil, false
	}
	res, err := fleet.ReadJSON(bytes.NewReader(data))
	if err != nil || res.Shard != nil || res.Spec.CanonicalHash() != hash {
		s.logf("serve: ignoring invalid cache entry for %.12s", hash)
		return nil, nil, false
	}
	return data, res, true
}

// addLocked makes e resident. A cache hit's artifact counts now; a job's
// counts when its seal freezes it. Callers hold s.mu.
func (s *Server) addLocked(e *entry) {
	s.sweeps[e.hash] = e
	s.order = append(s.order, e.hash)
	if e.job == nil {
		s.residentBytes += int64(len(e.artifact))
	}
}

// dropLocked forgets the resident sweep hash, if any. Its entry must have
// ended, so its artifact is no longer being written. Callers hold s.mu.
func (s *Server) dropLocked(hash string) {
	e, ok := s.sweeps[hash]
	if !ok {
		return
	}
	delete(s.sweeps, hash)
	s.residentBytes -= int64(len(e.artifact))
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == hash })
}

// storeCached lands the artifact in the persistent cache through an atomic
// write, so a crash mid-write never leaves a half cache entry to
// half-trust. On
// success the overlap index learns the artifact, whose spec is sp, under
// its base hash and the size bound is enforced (evicting LRU victims as
// needed).
func (s *Server) storeCached(hash, base string, artifact []byte, sp fleet.Sweep) {
	if s.cacheDir == "" {
		return
	}
	if err := os.MkdirAll(s.cacheDir, 0o755); err != nil {
		s.logf("serve: cache dir: %v", err)
		return
	}
	err := fleet.WriteAtomic(s.cachePath(hash), func(w io.Writer) error {
		_, err := w.Write(artifact)
		return err
	})
	if err != nil {
		s.logf("serve: cache write: %v", err)
		return
	}
	s.mu.Lock()
	s.indexAdd(newCacheInfo(hash, base, sp, int64(len(artifact))))
	s.evictLocked()
	s.mu.Unlock()
}

// lookup resolves the id path value, falling back to the persistent cache
// for hashes computed by an earlier process. An id that is not a canonical
// hash names no sweep: PathValue unescapes it, so "..%2Fx" would otherwise
// reach a file outside the cache directory.
func (s *Server) lookup(r *http.Request) (*entry, bool) {
	id := r.PathValue("id")
	if !cacheFileRe.MatchString(id + ".json") {
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.sweeps[id]
	if !ok {
		if artifact, res, hit := s.loadCached(id); hit {
			e = &entry{hash: id, cached: true, cacheTrials: res.Spec.Trials(res.Spec.Whole()), artifact: artifact}
			s.addLocked(e)
			ok = true
		}
	}
	if ok {
		s.touch(id)
	}
	s.mu.Unlock()
	return e, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.status(s.sweeps[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.status(e))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if e.job != nil {
		e.job.Cancel()
	}
	w.WriteHeader(http.StatusNoContent)
}

// resultEntry gates the artifact-bearing endpoints: it resolves the id
// and returns the entry only when a merged artifact exists, writing the
// contract's non-done status otherwise.
func (s *Server) resultEntry(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	e, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return nil, false
	}
	switch js := e.jobStatus(); {
	case js.State == distrib.JobDone:
		return e, true
	case !writeEnded(w, e, js):
		http.Error(w, fmt.Sprintf("sweep %s is %s (%d/%d cells)", e.hash, js.State, js.Done, js.Total), http.StatusConflict)
	}
	return nil, false
}

// writeEnded answers for a sweep that ended without an artifact — 410
// cancelled, 502 failed — and reports whether it did.
func writeEnded(w http.ResponseWriter, e *entry, js distrib.JobStatus) bool {
	switch js.State {
	case distrib.JobCancelled:
		http.Error(w, fmt.Sprintf("sweep %s was cancelled", e.hash), http.StatusGone)
	case distrib.JobFailed:
		http.Error(w, js.Err, http.StatusBadGateway)
	default:
		return false
	}
	return true
}

// handleResult serves the merged artifact — the exact bytes the first
// computation produced, whether they come from this process or the cache.
// The artifact is immutable per content address, so If-None-Match against
// the sweep-id ETag short-circuits to 304 without moving a byte.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	e, ok := s.resultEntry(w, r)
	if !ok {
		return
	}
	etag := `"` + e.hash + `"`
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.artifact)
}

// handleStats serves the cumulative cache economics counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// handleFigures serves the rendered paper tables for a done sweep:
// figures.SweepGroups as JSON, or ASCII tables with ?format=text — the
// same rendering cmd/phi-report produces from the artifact file.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	e, ok := s.resultEntry(w, r)
	if !ok {
		return
	}
	res, err := e.decode()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	groups := figures.SweepGroups(res)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, g := range groups {
			fmt.Fprintf(w, "== %s ==\n\n", g.Label)
			for _, t := range g.Tables {
				fmt.Fprintln(w, t)
			}
		}
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID     string               `json:"id"`
		Groups []figures.TableGroup `json:"groups"`
	}{ID: e.hash, Groups: groups})
}

// handleEvents streams a sweep's progress as server-sent events. Each
// "progress" event carries a distrib.Event (the same wire record shard
// workers emit, aggregated fan-out-wide); the stream ends with one "done"
// event carrying the terminal Status. A finished sweep replays its
// terminal event immediately, so late subscribers always get closure.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	shards := s.sched.Options().Shards
	sse := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}
	progressEvent := func(p distrib.Progress) distrib.Event {
		return distrib.Event{Event: distrib.EventName, Shard: p.Shard, Count: shards, Done: p.Done, Total: p.Total}
	}

	var ch <-chan distrib.Progress
	stop := func() {}
	if e.job != nil {
		ch, stop = e.job.Subscribe()
	}
	defer stop()

	// monitorFrame emits a "monitor" event carrying the current rolling
	// FIT/MTBF snapshot. Live snapshots are rebuilt from the partials the
	// job has validated so far, so re-rendering is skipped until their
	// count changes; the terminal frame always re-renders from the merged
	// artifact (force), making the stream's last monitor frame the exact
	// post-hoc fit.
	lastParts := -1
	monitorFrame := func(force bool) {
		snap, parts, err := s.monitorSnapshot(e)
		if err != nil {
			return
		}
		if !force && parts == lastParts {
			return
		}
		lastParts = parts
		sse("monitor", snap)
	}

	// Opening snapshot, so a subscriber joining mid-run sees the current
	// position before the next worker report arrives.
	if st := s.status(e); !distrib.JobState(st.State).Terminal() {
		sse("progress", progressEvent(distrib.Progress{Done: st.Done, Total: st.Total}))
		monitorFrame(false)
	}
	// The subscription closes when the job ends, after its seal.
	for ch != nil {
		select {
		case p, open := <-ch:
			if !open {
				ch = nil
				break
			}
			sse("progress", progressEvent(p))
			monitorFrame(false)
		case <-r.Context().Done():
			return
		}
	}
	st := s.status(e)
	if st.State == string(distrib.JobDone) {
		monitorFrame(true)
	}
	sse("done", st)
}
