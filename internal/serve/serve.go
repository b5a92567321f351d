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
// campaign.
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
// it as shard 0 of an explicit-range plan (distrib.Scheduler's
// SubmitWithPrefix), and workers compute only the missing trial ranges;
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
//	    shard partials landed so far (zero trials before the first shard
//	    finishes); done sweeps fold the merged result, which equals the
//	    post-hoc analysis fit exactly. 410 cancelled, 502 failed.
//	DELETE /v1/sweeps/{id}
//	    Cancels the sweep's job (204); cancelling a finished sweep is a
//	    no-op (204), unknown ids 404.
//	GET /v1/stats
//	    200 + Stats JSON: submissions, full/partial hits, misses,
//	    coalesced joins, trials served from cache vs computed, evictions,
//	    and the cache's on-disk extent.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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
// one, or an artifact resurrected from the cache. Terminal fields
// (artifact, result, err) are written exactly once before done closes;
// readers observe them only through done, so no lock guards them.
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

	done     chan struct{}
	artifact []byte // exact WriteJSON bytes of the merged result
	result   *fleet.SweepResult
	err      error
}

func (e *entry) terminal() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
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
	// canonical hash, searchable by base hash for prefix reuse.
	index  map[string]*cacheInfo
	useSeq int64
	stats  Stats
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
	st := Status{
		ID: e.hash, Cached: e.cached, Links: linksFor(e.hash),
		Partial: e.partial, Prefix: e.prefix,
		TrialsFromCache: e.cacheTrials, TrialsComputed: e.freshTrials,
	}
	if e.terminal() {
		switch {
		case errors.Is(e.err, context.Canceled):
			st.State = string(distrib.JobCancelled)
		case e.err != nil:
			st.State = string(distrib.JobFailed)
			st.Error = e.err.Error()
		default:
			st.State = string(distrib.JobDone)
		}
		if e.job != nil {
			js := e.job.Status()
			st.Done, st.Total = js.Done, js.Total
			st.TrialsResumed, st.TrialsStolen = js.TrialsResumed, js.TrialsStolen
		}
		return st
	}
	js := e.job.Status()
	st.State, st.Done, st.Total = string(js.State), js.Done, js.Total
	if js.State.Terminal() {
		// The job has ended but finalize has not yet frozen the artifact (or
		// the error), stored it and indexed it. Terminal states are
		// finalize's to publish: a client told "done" must find the result
		// servable and the artifact mountable as a prefix.
		st.State = string(distrib.JobRunning)
	}
	st.TrialsResumed, st.TrialsStolen = js.TrialsResumed, js.TrialsStolen
	return st
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
	base := spec.CanonicalHashBase()
	reqTrials := specTrials(spec)
	admit := func(outcome, prefix string, fromCache, computed int) {
		if s.admission != nil {
			s.admission.record(AdmissionRecord{
				Hash: hash, Base: base, Outcome: outcome, Prefix: prefix,
				TrialsFromCache: fromCache, TrialsComputed: computed,
			})
		}
	}

	s.mu.Lock()
	s.stats.Submissions++
	if e, ok := s.sweeps[hash]; ok {
		// A failed or cancelled sweep is not an answer; resubmitting it is
		// the retry path. Anything else coalesces.
		if !e.terminal() || e.err == nil {
			if e.terminal() {
				s.stats.FullHits++
				s.stats.TrialsFromCache += int64(reqTrials)
				s.touch(hash)
			} else {
				s.stats.Coalesced++
			}
			s.mu.Unlock()
			st := s.status(e)
			st.Coalesced = !e.terminal()
			if st.State == string(distrib.JobDone) {
				st.Cached = true // no compute was spent on this request
				admit("full", "", reqTrials, 0)
			} else {
				admit("coalesced", "", 0, 0)
			}
			s.logf("serve: sweep %.12s joined (%s)", hash, st.State)
			writeJSON(w, http.StatusOK, st)
			return
		}
		delete(s.sweeps, hash)
		// keep its slot in order; re-adding below would duplicate the id
		for i, id := range s.order {
			if id == hash {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	if artifact, res, ok := s.loadCached(hash); ok {
		e := &entry{
			hash: hash, cached: true, cacheTrials: reqTrials,
			done: make(chan struct{}), artifact: artifact, result: res,
		}
		close(e.done)
		s.sweeps[hash] = e
		s.order = append(s.order, hash)
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
	for {
		best := s.bestOverlap(spec)
		if best == nil {
			break
		}
		_, cachedRes, ok := s.loadCached(best.hash)
		if !ok {
			delete(s.index, best.hash)
			continue
		}
		job, err := s.sched.SubmitWithPrefix(spec, cachedRes)
		if err != nil {
			// The planner refused what the index predicted (e.g. a stale
			// artifact rewritten mid-flight); recompute instead.
			s.logf("serve: overlap plan around %.12s failed: %v", best.hash, err)
			break
		}
		s.touch(best.hash)
		e := &entry{
			hash: hash, job: job, done: make(chan struct{}),
			partial: true, prefix: best.hash,
			cacheTrials: best.trials(), freshTrials: reqTrials - best.trials(),
		}
		s.sweeps[hash] = e
		s.order = append(s.order, hash)
		s.stats.PartialHits++
		s.stats.TrialsFromCache += int64(e.cacheTrials)
		s.mu.Unlock()
		s.logf("serve: sweep %.12s submitted as %s — partial overlap on %.12s (%d trials cached, %d to compute)",
			hash, job.ID(), best.hash, e.cacheTrials, e.freshTrials)
		admit("partial", best.hash, e.cacheTrials, e.freshTrials)
		go s.finalize(e)
		writeJSON(w, http.StatusAccepted, s.status(e))
		return
	}

	job, err := s.sched.Submit(spec)
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	e := &entry{hash: hash, job: job, done: make(chan struct{}), freshTrials: reqTrials}
	s.sweeps[hash] = e
	s.order = append(s.order, hash)
	s.stats.Misses++
	s.mu.Unlock()
	s.logf("serve: sweep %.12s submitted as %s (%d shards)", hash, job.ID(), s.sched.Options().Shards)
	admit("miss", "", 0, reqTrials)
	go s.finalize(e)
	writeJSON(w, http.StatusAccepted, s.status(e))
}

// finalize waits a submitted job out, freezes its artifact bytes, and
// fills the persistent cache — after which every request for this hash is
// served from memory or disk, byte-identical, forever.
func (s *Server) finalize(e *entry) {
	res, err := e.job.Wait(context.Background())
	if err != nil {
		e.err = err
		close(e.done)
		s.logf("serve: sweep %.12s finished: %v", e.hash, err)
		return
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		e.err = err
		close(e.done)
		return
	}
	e.artifact = buf.Bytes()
	e.result = res
	s.storeCached(e.hash, e.artifact, res)
	s.mu.Lock()
	// Fresh compute is counted when it actually lands, so failed jobs
	// never inflate the savings ledger. Elastic salvage totals come from
	// the job's own counters at the same moment, for the same reason.
	s.stats.TrialsComputed += int64(e.freshTrials)
	js := e.job.Status()
	s.stats.TrialsResumed += js.TrialsResumed
	s.stats.TrialsStolen += js.TrialsStolen
	s.mu.Unlock()
	close(e.done)
	s.logf("serve: sweep %.12s done (%d bytes)", e.hash, len(e.artifact))
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

// storeCached lands the artifact in the persistent cache via tmp+rename,
// so a crash mid-write never leaves a half cache entry to half-trust. On
// success the overlap index learns the artifact and the size bound is
// enforced (evicting LRU victims as needed).
func (s *Server) storeCached(hash string, artifact []byte, res *fleet.SweepResult) {
	if s.cacheDir == "" {
		return
	}
	if err := os.MkdirAll(s.cacheDir, 0o755); err != nil {
		s.logf("serve: cache dir: %v", err)
		return
	}
	path := s.cachePath(hash)
	tmp, err := os.CreateTemp(s.cacheDir, hash+".tmp-*")
	if err != nil {
		s.logf("serve: cache write: %v", err)
		return
	}
	if _, err := tmp.Write(artifact); err == nil {
		err = tmp.Close()
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.logf("serve: cache write: %v", err)
		return
	}
	s.mu.Lock()
	s.indexAdd(hash, res, int64(len(artifact)))
	s.evictLocked()
	s.mu.Unlock()
}

// lookup resolves the id path value, falling back to the persistent cache
// for hashes computed by an earlier process.
func (s *Server) lookup(r *http.Request) (*entry, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.sweeps[id]
	if !ok {
		if artifact, res, hit := s.loadCached(id); hit {
			e = &entry{
				hash: id, cached: true, cacheTrials: specTrials(res.Spec),
				done: make(chan struct{}), artifact: artifact, result: res,
			}
			close(e.done)
			s.sweeps[id] = e
			s.order = append(s.order, id)
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
	if !e.terminal() {
		st := s.status(e)
		http.Error(w, fmt.Sprintf("sweep %s is %s (%d/%d cells)", e.hash, st.State, st.Done, st.Total), http.StatusConflict)
		return nil, false
	}
	switch {
	case errors.Is(e.err, context.Canceled):
		http.Error(w, fmt.Sprintf("sweep %s was cancelled", e.hash), http.StatusGone)
		return nil, false
	case e.err != nil:
		http.Error(w, e.err.Error(), http.StatusBadGateway)
		return nil, false
	}
	return e, true
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
	groups := figures.SweepGroups(e.result)
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
	// FIT/MTBF snapshot. Live snapshots are rebuilt from the shard
	// partials landed so far, so re-rendering is skipped until the landed
	// count changes; the terminal frame always re-renders from the merged
	// result (force), making the stream's last monitor frame the exact
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
	if !e.terminal() {
		st := s.status(e)
		sse("progress", progressEvent(distrib.Progress{Done: st.Done, Total: st.Total}))
		monitorFrame(false)
	}
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
		case <-e.done:
			ch = nil
		}
	}
	// The job is terminal; make sure finalize has frozen the artifact.
	select {
	case <-e.done:
	case <-r.Context().Done():
		return
	}
	if e.err == nil {
		monitorFrame(true)
	}
	sse("done", s.status(e))
}
