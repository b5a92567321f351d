package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"phirel/internal/distrib"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/serve"
	"phirel/internal/stats"
)

// pollEvery is how long a client waits between polls of a running sweep.
const pollEvery = time.Millisecond

// serveMix drives a real serve.Server over HTTP with a closed loop of nproc
// clients. Each cycle asks fresh questions cold, asks them again at twice
// the trials (half of which the cache holds), then repeats the first asks as
// exact hits. Every phase has the same share of each kind of request as the
// warm-up, so the service's hit ratios do not depend on how many cycles ran.
type serveMix struct {
	cfg config
	t   *tally

	dir    string
	sched  *distrib.Scheduler
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	order  *stats.RNG // shuffles each phase's script
	next   int        // spec families used so far

	sampled []servedArtifact // checked against monolithic runs by verify
	lastKB  float64

	// Set during a traced cycle.
	rec      *recorder
	mu       sync.Mutex
	launches map[string][]launch // by sweep id

	// Observed over traced cycles.
	admitMs, coldMs, partialMs, hitUs []float64
	hitRate                           []float64
	queueMs, launchQueueMs, finalMs   []float64
	gapMs, polls, launchMs            []float64
	sweeps, attempts                  int
}

// servedArtifact is a spec and the bytes the service answered it with.
type servedArtifact struct {
	spec fleet.Sweep
	art  []byte
}

func (s *serveMix) root() string { return "serve.request" }

// serveSpec is the cold question of family f: the two cheapest kernels under
// two fault models.
func serveSpec(cfg config, f int) fleet.Sweep {
	return fleet.Sweep{
		Benchmarks: []string{"LUD", "NW"},
		Models:     []fault.Model{fault.Single, fault.Zero},
		N:          cfg.sc.serveN,
		Seed:       cfg.family(f), BenchSeed: benchSeed, Workers: cfg.nproc,
	}
}

// launch is the in-process shard worker the scheduler runs.
func (s *serveMix) launch(ctx context.Context, task distrib.Task, _ io.Writer) error {
	l := launch{start: time.Now()}
	spec, err := runShard(ctx, task)
	l.end = time.Now()
	s.t.op(err, "launch of shard "+task.ShardArg())
	s.mu.Lock()
	if s.launches != nil && err == nil {
		id := spec.CanonicalHash()
		s.launches[id] = append(s.launches[id], l)
	}
	s.mu.Unlock()
	return err
}

func (s *serveMix) setup(ctx context.Context) error {
	dir, err := freshDir(s.cfg, "serve")
	if err != nil {
		return err
	}
	s.dir = dir
	s.sched, err = distrib.NewScheduler(distrib.Options{
		Shards: 2, MaxConcurrent: s.cfg.nproc, Dir: dir + "/jobs",
		Launcher: distrib.LauncherFunc(s.launch),
	})
	if err != nil {
		return err
	}
	s.srv = serve.New(s.sched, serve.WithCacheDir(dir+"/cache"))
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.cfg.nproc}}
	s.order = stats.NewRNG(s.cfg.seed)
	s.next = 0
	s.sampled = nil
	_, err = s.cycle(ctx, s.cfg.sc.serveWarm)
	return err
}

func (s *serveMix) close() {
	if s.ts == nil {
		return
	}
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.sched.Close()
	os.RemoveAll(s.dir)
	s.ts = nil
}

func (s *serveMix) rep(ctx context.Context, _ int) (repResult, error) {
	return s.cycle(ctx, s.cfg.sc.serveCold)
}

func (s *serveMix) traced(ctx context.Context, _ int, rec *recorder) (time.Duration, error) {
	s.mu.Lock()
	s.rec, s.launches = rec, map[string][]launch{}
	s.mu.Unlock()
	rr, err := s.cycle(ctx, s.cfg.sc.serveCold)
	s.mu.Lock()
	s.rec, s.launches = nil, nil
	s.mu.Unlock()
	return rr.wall, err
}

// verify runs the sampled specs monolithically, in process: what the
// service answered, from two shards or from a cached prefix plus the missing
// ranges, must equal them byte for byte.
func (s *serveMix) verify(ctx context.Context) {
	for _, sa := range s.sampled {
		res, err := sa.spec.Run(ctx)
		if !s.t.op(err, "monolithic reference run") {
			continue
		}
		ref, err := encode(res)
		s.t.check(err == nil && bytes.Equal(ref, sa.art),
			"served artifact of sweep %.12s differs from the monolithic run of its spec", sa.spec.CanonicalHash())
	}
}

// asked is one request as its client saw it.
type asked struct {
	post0, post1 time.Time // POST sent, status received
	get0, get1   time.Time // the GET that answered 200: sent, body read
	polls        int       // GETs answered 409 before it
	doneGap      time.Duration
	status       serve.Status
	code         int
	art          []byte
	// same says the artifact equalled the one the phase expected; a phase
	// that expects one drops the bytes once compared.
	same bool
}

// ask POSTs spec and then GETs its result until the answer is 200; a 409
// means the sweep is still running and is polled. The request is complete
// only when the artifact is in hand, whatever the status endpoint says. A
// traced ask also polls the status, to see how long a sweep reported done
// goes on answering 409.
func (s *serveMix) ask(ctx context.Context, spec fleet.Sweep) (asked, error) {
	var a asked
	var body bytes.Buffer
	if err := spec.WriteSpec(&body); err != nil {
		return a, err
	}
	a.post0 = time.Now()
	code, data, err := s.do(ctx, http.MethodPost, "/v1/sweeps", &body)
	if err != nil {
		return a, err
	}
	a.post1 = time.Now()
	a.code = code
	if code != http.StatusOK && code != http.StatusAccepted {
		return a, fmt.Errorf("POST /v1/sweeps answered %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &a.status); err != nil {
		return a, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	var firstDone, last409 time.Time
	for {
		a.get0 = time.Now()
		code, data, err := s.do(ctx, http.MethodGet, a.status.Links.Result, nil)
		if err != nil {
			return a, err
		}
		if code == http.StatusOK {
			a.get1, a.art = time.Now(), data
			break
		}
		if code != http.StatusConflict {
			return a, fmt.Errorf("GET %s answered %d: %s", a.status.Links.Result, code, data)
		}
		a.polls++
		last409 = time.Now()
		if s.rec != nil && firstDone.IsZero() {
			var st serve.Status
			code, data, err := s.do(ctx, http.MethodGet, a.status.Links.Self, nil)
			if err != nil || code != http.StatusOK || json.Unmarshal(data, &st) != nil {
				return a, fmt.Errorf("GET %s answered %d: %v", a.status.Links.Self, code, err)
			}
			if st.State == string(distrib.JobDone) {
				firstDone = time.Now()
			}
		}
		time.Sleep(pollEvery)
	}
	if !firstDone.IsZero() && last409.After(firstDone) {
		a.doneGap = last409.Sub(firstDone)
	}
	return a, nil
}

// do sends one request and reads the whole answer.
func (s *serveMix) do(ctx context.Context, method, path string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, body)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// phase sends specs, in shuffled order, from nproc clients that each wait
// for an answer before sending the next. It returns every answer, indexed
// like specs, and the wall time of the phase. When want is non-nil, answer i
// is compared with want[i] and its bytes are dropped.
func (s *serveMix) phase(ctx context.Context, specs []fleet.Sweep, want func(i int) []byte) ([]asked, time.Duration, error) {
	script := s.order.Perm(len(specs))
	out := make([]asked, len(specs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	errs := make([]error, s.cfg.nproc) // one slot per client
	start := time.Now()
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(script) {
					return
				}
				i := script[n]
				a, err := s.ask(ctx, specs[i])
				if want != nil {
					a.same, a.art = bytes.Equal(a.art, want(i)), nil
				}
				out[i] = a
				if !s.t.op(err, "request") {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start), errors.Join(errs...)
}

// cycle runs the three phases on n fresh spec families.
func (s *serveMix) cycle(ctx context.Context, n int) (repResult, error) {
	small := make([]fleet.Sweep, n)
	big := make([]fleet.Sweep, n)
	for i := range small {
		small[i] = serveSpec(s.cfg, s.next)
		big[i] = small[i]
		big[i].N *= 2
		s.next++
	}
	perSpec := specTrials(small[0])

	cold, coldWall, err := s.phase(ctx, small, nil)
	if err != nil {
		return repResult{}, err
	}
	partial, partialWall, err := s.phase(ctx, big, nil)
	if err != nil {
		return repResult{}, err
	}
	hitSpecs := make([]fleet.Sweep, n*s.cfg.sc.serveHitsPer)
	for i := range hitSpecs {
		hitSpecs[i] = small[i%n]
	}
	hits, hitWall, err := s.phase(ctx, hitSpecs, func(i int) []byte { return cold[i%n].art })
	if err != nil {
		return repResult{}, err
	}

	rr := repResult{trials: 2 * n * perSpec, wall: coldWall + partialWall}
	for i, a := range cold {
		st := a.status
		s.t.check(a.code == http.StatusAccepted && !st.Cached && !st.Partial,
			"cold request %.12s was answered %d cached=%v partial=%v", st.ID, a.code, st.Cached, st.Partial)
		rr.coldMs = append(rr.coldMs, a.get1.Sub(a.post0).Seconds()*1e3)
		s.observe("cold", i, a)
	}
	for i, a := range partial {
		st := a.status
		s.t.check(a.code == http.StatusAccepted && st.Partial && st.TrialsFromCache == perSpec && st.TrialsComputed == perSpec,
			"2N request %.12s was answered %d partial=%v with %d trials cached and %d to compute, want %d and %d",
			st.ID, a.code, st.Partial, st.TrialsFromCache, st.TrialsComputed, perSpec, perSpec)
		s.observe("partial", i, a)
	}
	for i, a := range hits {
		st := a.status
		s.t.check(a.code == http.StatusOK && st.Cached && a.same,
			"repeat request %.12s was answered %d cached=%v, or with bytes other than the first answer's", st.ID, a.code, st.Cached)
		s.observe("hit", i, a)
	}
	for i := 0; i < min(2, n); i++ {
		s.sampled = append(s.sampled, servedArtifact{small[i], cold[i].art}, servedArtifact{big[i], partial[i].art})
	}
	s.lastKB = float64(len(partial[0].art)) / 1024
	if s.rec != nil {
		s.hitRate = append(s.hitRate, float64(len(hits))/hitWall.Seconds())
		s.sweeps += 2 * n
	}
	return rr, nil
}

// observe records a traced request's spans and latencies.
func (s *serveMix) observe(kind string, i int, a asked) {
	if s.rec == nil {
		return
	}
	total := a.get1.Sub(a.post0)
	trace := a.status.ID
	switch kind {
	case "hit":
		trace = fmt.Sprintf("%s#%d", a.status.ID, i)
		s.hitUs = append(s.hitUs, total.Seconds()*1e6)
	case "cold":
		s.admitMs = append(s.admitMs, a.post1.Sub(a.post0).Seconds()*1e3)
		s.coldMs = append(s.coldMs, total.Seconds()*1e3)
	case "partial":
		s.partialMs = append(s.partialMs, total.Seconds()*1e3)
	}
	root := s.rec.add(0, trace, "serve.request", a.post0, a.get1)
	s.rec.add(root, trace, "serve.post", a.post0, a.post1)
	s.rec.add(root, trace, "serve.get_result", a.get0, a.get1)
	if kind == "hit" {
		return
	}
	wait := s.rec.add(root, trace, "serve.wait", a.post1, a.get0)
	s.polls = append(s.polls, float64(a.polls))
	s.gapMs = append(s.gapMs, a.doneGap.Seconds()*1e3)

	s.mu.Lock()
	launches := s.launches[a.status.ID]
	s.mu.Unlock()
	if len(launches) == 0 {
		return
	}
	first, last := launches[0].start, launches[0].end
	for _, l := range launches {
		// The client's clock cuts the request where answers arrive and polls
		// leave, not where the server acts: a launch can begin before the
		// 202 reaches the client, and end while the poll that will be
		// answered 200 is already on its way. Those slivers belong to
		// serve.post and serve.get_result, so the child is cut to the wait.
		start, end := l.start, l.end
		if start.Before(a.post1) {
			start = a.post1
		}
		if end.After(a.get0) {
			end = a.get0
		}
		if end.Before(start) {
			end = start
		}
		s.rec.add(wait, trace, "distrib.launch", start, end)
		s.launchMs = append(s.launchMs, l.end.Sub(l.start).Seconds()*1e3)
		s.launchQueueMs = append(s.launchQueueMs, start.Sub(a.post1).Seconds()*1e3)
		if l.start.Before(first) {
			first = l.start
		}
		if l.end.After(last) {
			last = l.end
		}
	}
	s.attempts += len(launches)
	s.queueMs = append(s.queueMs, max(0, first.Sub(a.post1).Seconds()*1e3))
	s.finalMs = append(s.finalMs, a.get1.Sub(last).Seconds()*1e3)
}

func (s *serveMix) layers(m map[string]float64) {
	m["fleet.artifact_kb"] = s.lastKB
	m["serve.admit_p50_ms"] = median(s.admitMs)
	m["serve.cold_p95_ms"] = quantile(s.coldMs, 0.95)
	m["serve.partial_p50_ms"] = median(s.partialMs)
	m["serve.partial_p95_ms"] = quantile(s.partialMs, 0.95)
	m["serve.hit_p50_us"] = median(s.hitUs)
	m["serve.hit_p99_us"] = quantile(s.hitUs, 0.99)
	m["serve.hit_req_per_s"] = median(s.hitRate)
	m["serve.queue_wait_ms"] = mean(s.queueMs)
	m["serve.finalize_ms"] = median(s.finalMs)
	m["serve.done_gap_ms"] = mean(s.gapMs)
	m["serve.polls_409"] = mean(s.polls)
	m["distrib.queue_wait_ms"] = mean(s.launchQueueMs)
	m["distrib.launch_ms"] = median(s.launchMs)
	if s.sweeps > 0 {
		m["distrib.attempts"] = float64(s.attempts) / float64(s.sweeps)
	}

	st := s.srv.StatsSnapshot()
	m["serve.hit_ratio"] = float64(st.FullHits+st.PartialHits) / float64(st.Submissions)
	m["serve.cached_trial_frac"] = float64(st.TrialsFromCache) / float64(st.TrialsFromCache+st.TrialsComputed)
	if st.CacheEntries > 0 {
		m["serve.cache_kb"] = float64(st.CacheBytes) / 1024 / float64(st.CacheEntries)
	}
}
