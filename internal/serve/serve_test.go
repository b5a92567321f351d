package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phirel/internal/bench"
	_ "phirel/internal/bench/all"
	"phirel/internal/distrib"
	"phirel/internal/fault"
	"phirel/internal/figures"
	"phirel/internal/fleet"
)

// testSpec is the service tests' sweep: one injection cell, sized to
// finish in well under a second per shard. seed varies the content
// address so tests get distinct cache entries from one fixture.
func testSpec(seed uint64) fleet.Sweep {
	return fleet.Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          6,
		Seed:       seed,
		BenchSeed:  1,
		Workers:    1,
	}
}

func specBody(t *testing.T, spec fleet.Sweep) *bytes.Reader {
	t.Helper()
	var b bytes.Buffer
	if err := spec.WriteSpec(&b); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b.Bytes())
}

// worker is the in-process reference launcher: what a phi-bench
// subprocess does (spec in, RunPlan, partial out, progress JSONL on
// stderr), plus an execution counter — the tests' proof of "zero
// compute" — and an optional gate that holds every shard until release.
type worker struct {
	execs atomic.Int64
	// planInj and planBeam sum the per-cell trial counts of every plan
	// executed — the tests' measure of fresh compute.
	planInj  atomic.Int64
	planBeam atomic.Int64
	gate     chan struct{} // nil = run immediately
	fail     bool          // report failure instead of landing a partial
}

func (wk *worker) Launch(ctx context.Context, task distrib.Task, stderr io.Writer) error {
	wk.execs.Add(1)
	if wk.gate != nil {
		select {
		case <-wk.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if wk.fail {
		fmt.Fprintln(stderr, "synthetic shard failure")
		return fmt.Errorf("synthetic shard failure")
	}
	spec, err := fleet.ReadSpecFile(task.SpecPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stderr)
	spec.Progress = func(done, total int) {
		enc.Encode(distrib.Event{Event: distrib.EventName, Shard: task.Shard, Count: task.Count, Done: done, Total: total})
	}
	wk.planInj.Add(int64(task.Plan.Injection.N))
	wk.planBeam.Add(int64(task.Plan.Beam.N))
	res, err := spec.RunPlan(ctx, *task.Plan)
	if err != nil {
		return err
	}
	return res.WriteFile(task.OutPath)
}

const testShards = 2

// newTestServer stands up a scheduler + service over wk. retries=0 so a
// failing launcher fails fast.
func newTestServer(t *testing.T, wk *worker, opts ...Option) *httptest.Server {
	t.Helper()
	sched, err := distrib.NewScheduler(distrib.Options{
		Shards:   testShards,
		Launcher: wk,
		Dir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(New(sched, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec fleet.Sweep) (int, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", specBody(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("POST status %d: undecodable body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the sweep reaches want (a terminal state).
func waitState(t *testing.T, ts *httptest.Server, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State == "failed" || st.State == "cancelled" || st.State == "done" {
			t.Fatalf("sweep %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestServeCacheHitByteIdentical is the PR's acceptance test: a repeated
// POST of the same canonical spec is served from the cache with zero
// recompute, and the artifact bytes are identical — to the first response
// and to a direct monolithic fleet run.
func TestServeCacheHitByteIdentical(t *testing.T) {
	spec := testSpec(1701)
	wk := &worker{}
	ts := newTestServer(t, wk)

	code, st := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: %d", code)
	}
	if st.ID != spec.CanonicalHash() {
		t.Fatalf("sweep id %s, want the canonical spec hash %s", st.ID, spec.CanonicalHash())
	}
	waitState(t, ts, st.ID, "done")
	if n := wk.execs.Load(); n != testShards {
		t.Fatalf("first run executed %d shards, want %d", n, testShards)
	}

	code, hdr, first := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if etag := hdr.Get("ETag"); etag != `"`+st.ID+`"` {
		t.Fatalf("ETag %s, want the sweep id", etag)
	}

	// The artifact equals what a monolithic in-process run would produce.
	mono, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var monoJSON bytes.Buffer
	if err := mono.WriteJSON(&monoJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, monoJSON.Bytes()) {
		t.Fatal("served artifact differs from a monolithic run")
	}

	// The repeat: cache hit, zero new compute, identical bytes.
	code, st2 := postSpec(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("repeat POST: %d, want 200 (cache hit)", code)
	}
	if !st2.Cached || st2.State != "done" {
		t.Fatalf("repeat POST status %+v, want cached done", st2)
	}
	if n := wk.execs.Load(); n != testShards {
		t.Fatalf("repeat POST recomputed: %d shard executions, want %d", n, testShards)
	}
	_, _, again := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result")
	if !bytes.Equal(first, again) {
		t.Fatal("cache hit served different bytes than the fresh run")
	}
}

// goldenCounted counts its kernel's golden runs: the runs that inject
// nothing. Every trial that runs the kernel injects.
type goldenCounted struct {
	bench.Benchmark
	runs *atomic.Int64
}

func (g goldenCounted) Run(ctx *bench.Ctx) {
	defer func() {
		if !ctx.Injected() {
			g.runs.Add(1)
		}
	}()
	g.Benchmark.Run(ctx)
}

// TestServeResidentKeys: a cold request whose keys the process has already
// built — here by a monolithic run of another spec over the same kernels and
// bench seed — makes no kernel run of its own in either shard, only its
// trials, and its artifact is byte-identical to a monolithic run.
func TestServeResidentKeys(t *testing.T) {
	var golden atomic.Int64
	for name, real := range map[string]string{"resident-DGEMM": "DGEMM", "resident-NW": "NW"} {
		// Registering drops the name's resident keys: the test starts cold.
		bench.Register(name, func(seed uint64) bench.Benchmark {
			b, err := bench.New(real, seed)
			if err != nil {
				panic(err)
			}
			return goldenCounted{b, &golden}
		})
		t.Cleanup(func() { bench.Unregister(name) })
	}
	spec := func(seed uint64) fleet.Sweep {
		s := testSpec(seed)
		s.Benchmarks = []string{"resident-DGEMM", "resident-NW"}
		return s
	}
	if _, err := spec(1).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := golden.Load(); n != 2 {
		t.Fatalf("the run that built the keys made %d kernel runs, want 2", n)
	}

	wk := &worker{}
	ts := newTestServer(t, wk)
	cold := spec(2)
	code, st := postSpec(t, ts, cold)
	if code != http.StatusAccepted || st.Cached || st.Partial {
		t.Fatalf("POST: %d %+v, want a cold request", code, st)
	}
	waitState(t, ts, st.ID, "done")
	if n := wk.execs.Load(); n != testShards {
		t.Fatalf("the request executed %d shards, want %d", n, testShards)
	}
	if n := golden.Load() - 2; n != 0 {
		t.Fatalf("a cold request on resident keys made %d kernel runs, want 0", n)
	}
	_, _, served := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result")
	mono, err := cold.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var monoJSON bytes.Buffer
	if err := mono.WriteJSON(&monoJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, monoJSON.Bytes()) {
		t.Fatal("the artifact served on resident keys differs from a monolithic run")
	}
}

// TestServeCoalesce: a duplicate submission while the sweep is still in
// flight joins the existing job instead of starting a second one.
func TestServeCoalesce(t *testing.T) {
	spec := testSpec(42)
	wk := &worker{gate: make(chan struct{})}
	ts := newTestServer(t, wk)

	code, st := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: %d", code)
	}
	code, dup := postSpec(t, ts, spec)
	if code != http.StatusOK || !dup.Coalesced {
		t.Fatalf("in-flight duplicate POST: %d %+v, want 200 coalesced", code, dup)
	}
	close(wk.gate)
	waitState(t, ts, st.ID, "done")
	if n := wk.execs.Load(); n != testShards {
		t.Fatalf("%d shard executions for two submissions, want %d (one job)", n, testShards)
	}
}

// TestServePersistentCache: a second service instance (fresh scheduler,
// fresh process state) answers from the shared cache directory without
// launching anything.
func TestServePersistentCache(t *testing.T) {
	spec := testSpec(7)
	cacheDir := t.TempDir()

	wk1 := &worker{}
	ts1 := newTestServer(t, wk1, WithCacheDir(cacheDir))
	_, st := postSpec(t, ts1, spec)
	waitState(t, ts1, st.ID, "done")
	_, _, first := getBody(t, ts1, "/v1/sweeps/"+st.ID+"/result")
	ts1.Close()

	wk2 := &worker{}
	ts2 := newTestServer(t, wk2, WithCacheDir(cacheDir))
	code, st2 := postSpec(t, ts2, spec)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("restarted service POST: %d %+v, want 200 cached", code, st2)
	}
	code, _, again := getBody(t, ts2, "/v1/sweeps/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("restarted service result: %d", code)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("artifact from the persistent cache differs from the original run")
	}
	if n := wk2.execs.Load(); n != 0 {
		t.Fatalf("restarted service executed %d shards, want 0", n)
	}

	// The persistent cache also resolves ids never POSTed to this
	// instance (GET before POST after a restart).
	ts3 := newTestServer(t, &worker{}, WithCacheDir(cacheDir))
	if st := getStatus(t, ts3, st.ID); st.State != "done" || !st.Cached {
		t.Fatalf("cache-resurrected status %+v", st)
	}

	// A zero-length entry, as a crash between create and write would leave,
	// is no artifact: the restarted index scan skips it, a POST of its spec
	// recomputes it, and the seal leaves the file holding the artifact.
	empty := testSpec(8)
	emptyPath := filepath.Join(cacheDir, empty.CanonicalHash()+".json")
	if err := os.WriteFile(emptyPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wk4 := &worker{}
	ts4 := newTestServer(t, wk4, WithCacheDir(cacheDir))
	if n := getStats(t, ts4).CacheEntries; n != 1 {
		t.Fatalf("restarted index holds %d entries, want 1 (the empty file skipped)", n)
	}
	code, st4 := postSpec(t, ts4, empty)
	if code != http.StatusAccepted || st4.Cached {
		t.Fatalf("POST over an empty cache entry: %d %+v, want 202 uncached", code, st4)
	}
	waitState(t, ts4, st4.ID, "done")
	if n := wk4.execs.Load(); n != testShards {
		t.Fatalf("recomputing the empty entry executed %d shards, want %d, one per shard", n, testShards)
	}
	_, _, artifact := getBody(t, ts4, "/v1/sweeps/"+st4.ID+"/result")
	if onDisk, err := os.ReadFile(emptyPath); err != nil || !bytes.Equal(onDisk, artifact) {
		t.Fatalf("sealed cache file holds %d bytes (%v), want the %d-byte artifact", len(onDisk), err, len(artifact))
	}
}

// TestServeEvents: the SSE stream delivers progress events while the
// sweep runs and ends with a terminal done event; a finished sweep
// replays its terminal event to late subscribers.
func TestServeEvents(t *testing.T) {
	spec := testSpec(3)
	wk := &worker{gate: make(chan struct{})}
	ts := newTestServer(t, wk)
	_, st := postSpec(t, ts, spec)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %s", ct)
	}
	close(wk.gate)

	events := map[string]int{}
	var final Status
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events[event]++
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				t.Fatal(err)
			}
		case strings.HasPrefix(line, "data: ") && event == "progress":
			var ev distrib.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Event != distrib.EventName || ev.Count != testShards {
				t.Fatalf("malformed progress event %+v", ev)
			}
		}
		if event == "done" && final.ID != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events["progress"] == 0 {
		t.Fatal("no progress events before the terminal event")
	}
	if final.State != "done" || final.ID != st.ID {
		t.Fatalf("terminal event %+v", final)
	}

	// Late subscriber: immediate terminal replay.
	resp2, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(replay), "event: done") {
		t.Fatalf("late subscription got no terminal event:\n%s", replay)
	}
}

// TestServeFigures: the figures endpoint renders the same tables
// phi-report derives from the artifact file.
func TestServeFigures(t *testing.T) {
	spec := testSpec(11)
	ts := newTestServer(t, &worker{})
	_, st := postSpec(t, ts, spec)
	waitState(t, ts, st.ID, "done")

	code, _, body := getBody(t, ts, "/v1/sweeps/"+st.ID+"/figures")
	if code != http.StatusOK {
		t.Fatalf("figures: %d", code)
	}
	var out struct {
		ID     string               `json:"id"`
		Groups []figures.TableGroup `json:"groups"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != st.ID || len(out.Groups) == 0 {
		t.Fatalf("figures payload id=%s groups=%d", out.ID, len(out.Groups))
	}
	for _, g := range out.Groups {
		if len(g.Tables) == 0 {
			t.Fatalf("group %q rendered no tables", g.Label)
		}
	}

	code, hdr, text := getBody(t, ts, "/v1/sweeps/"+st.ID+"/figures?format=text")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("figures text: %d %s", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(string(text), "Figure 4") {
		t.Fatalf("text figures missing the outcome table:\n%.400s", text)
	}
}

// TestServeErrorPaths walks the contract's non-happy responses.
func TestServeErrorPaths(t *testing.T) {
	wk := &worker{gate: make(chan struct{})}
	root := t.TempDir()
	var (
		logMu sync.Mutex
		logs  []string
	)
	logf := func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	ts := newTestServer(t, wk, WithCacheDir(filepath.Join(root, "cache")), WithLogf(logf))

	// Not a spec at all, and a spec with unknown fields: 400.
	for _, body := range []string{"not json", `{"benchmarks":["DGEMM"],"nope":1}`} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown ids: 404 everywhere.
	for _, path := range []string{"/v1/sweeps/deadbeef", "/v1/sweeps/deadbeef/result", "/v1/sweeps/deadbeef/events", "/v1/sweeps/deadbeef/figures"} {
		if code, _, _ := getBody(t, ts, path); code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, code)
		}
	}

	// An id that unescapes to a path out of the cache directory: 404, and
	// the file beside the directory is never opened.
	if err := os.WriteFile(filepath.Join(root, "outside.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/sweeps/..%2Foutside", "/v1/sweeps/..%2Foutside/result", "/v1/sweeps/..%2Foutside/monitor"} {
		if code, _, _ := getBody(t, ts, path); code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, code)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/..%2Foutside", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE ..%%2Foutside: %d, want 404", resp.StatusCode)
	}
	logMu.Lock()
	for _, line := range logs {
		if strings.Contains(line, "outside") {
			t.Errorf("the service read a file outside its cache directory: %q", line)
		}
	}
	logMu.Unlock()

	// Result of an in-flight sweep: 409.
	spec := testSpec(5)
	_, st := postSpec(t, ts, spec)
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result while running: %d, want 409", code)
	}

	// Cancelled: DELETE is 204, result turns 410, and a resubmission
	// starts a fresh job rather than serving the non-answer.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d, want 204", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).State != "cancelled" {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result"); code != http.StatusGone {
		t.Fatalf("result of cancelled sweep: %d, want 410", code)
	}
	close(wk.gate)
	code, st2 := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmission after cancel: %d %+v, want 202", code, st2)
	}
	waitState(t, ts, st2.ID, "done")
}

// TestServeSubmitBodyBound: POST /v1/sweeps reads at most maxSpecBytes. A
// body one byte over is refused with 413 and, like any unparseable body,
// leaves no entry and no submission behind; the same spec at exactly the
// bound is then admitted.
func TestServeSubmitBodyBound(t *testing.T) {
	ts := newTestServer(t, &worker{})
	text, err := testSpec(23).SpecString()
	if err != nil {
		t.Fatal(err)
	}
	// Leading whitespace keeps the body a valid spec, so only its length
	// can be what the service objects to; the spec's own trailing newline
	// goes, because the decoder stops at the closing brace.
	spec := strings.TrimSpace(text)
	post := func(size int) int {
		t.Helper()
		body := strings.Repeat(" ", size-len(spec)) + spec
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(maxSpecBytes + 1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of %d bytes: %d, want 413", maxSpecBytes+1, code)
	}
	if st := getStats(t, ts); st.Submissions != 0 {
		t.Fatalf("oversized POST counted as %d submissions, want 0", st.Submissions)
	}
	if _, _, list := getBody(t, ts, "/v1/sweeps"); strings.TrimSpace(string(list)) != "[]" {
		t.Fatalf("oversized POST left an entry behind: %s", list)
	}
	if code := post(maxSpecBytes); code != http.StatusAccepted {
		t.Fatalf("POST of exactly %d bytes: %d, want 202", maxSpecBytes, code)
	}
}

// TestServeFailedSweep: a permanently failing sweep reports 502 from the
// result endpoint and is retried by resubmission.
func TestServeFailedSweep(t *testing.T) {
	spec := testSpec(13)
	wk := &worker{fail: true}
	ts := newTestServer(t, wk)
	_, st := postSpec(t, ts, spec)
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).State != "failed" {
		if time.Now().After(deadline) {
			t.Fatal("sweep never failed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := getStatus(t, ts, st.ID); !strings.Contains(s.Error, "failed permanently") {
		t.Fatalf("failed status error %q", s.Error)
	}
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result"); code != http.StatusBadGateway {
		t.Fatalf("result of failed sweep: %d, want 502", code)
	}
	wk.fail = false
	code, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmission after failure: %d, want 202", code)
	}
	waitState(t, ts, st.ID, "done")
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result"); code != http.StatusOK {
		t.Fatalf("result after retry: %d", code)
	}
}

// TestServeList: the index lists sweeps in first-submission order.
func TestServeList(t *testing.T) {
	ts := newTestServer(t, &worker{})
	var ids []string
	for _, seed := range []uint64{21, 22, 23} {
		_, st := postSpec(t, ts, testSpec(seed))
		ids = append(ids, st.ID)
	}
	code, _, body := getBody(t, ts, "/v1/sweeps")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list []Status
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("listed %d sweeps, want %d", len(list), len(ids))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("list order %d: %s, want %s", i, st.ID, ids[i])
		}
	}
}

// TestServeLoadSmoke is the serve-check suite: a small load of
// overlapping submissions — every spec requested more than once, some
// concurrently — must produce at least one cache/coalesce hit per spec,
// exactly one computation per distinct spec, and byte-identical bodies
// across every request for the same id.
func TestServeLoadSmoke(t *testing.T) {
	wk := &worker{}
	ts := newTestServer(t, wk, WithCacheDir(t.TempDir()))

	specs := []fleet.Sweep{testSpec(31), testSpec(32), testSpec(33)}
	const dups = 3
	var wg sync.WaitGroup
	var hits atomic.Int64
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = spec.CanonicalHash()
		for d := 0; d < dups; d++ {
			wg.Add(1)
			go func(spec fleet.Sweep) {
				defer wg.Done()
				code, st := postSpec(t, ts, spec)
				switch code {
				case http.StatusAccepted:
				case http.StatusOK:
					if !st.Coalesced && !st.Cached {
						t.Errorf("200 response neither coalesced nor cached: %+v", st)
					}
					hits.Add(1)
				default:
					t.Errorf("POST: %d", code)
				}
			}(spec)
		}
	}
	wg.Wait()
	for _, id := range ids {
		waitState(t, ts, id, "done")
	}
	if got, want := hits.Load(), int64(len(specs)*(dups-1)); got != want {
		t.Errorf("%d cache/coalesce hits, want %d (one computation per distinct spec)", got, want)
	}
	if got, want := wk.execs.Load(), int64(len(specs)*testShards); got != want {
		t.Errorf("%d shard executions, want %d", got, want)
	}
	for _, id := range ids {
		_, _, first := getBody(t, ts, "/v1/sweeps/"+id+"/result")
		for i := 0; i < 2; i++ {
			if _, _, again := getBody(t, ts, "/v1/sweeps/"+id+"/result"); !bytes.Equal(first, again) {
				t.Errorf("sweep %.12s served non-identical bytes", id)
			}
		}
	}
}

// TestServeDoneOnlyAfterSeal blocks the seal after the merge: the job has
// every cell done but its artifact is not yet frozen, stored and indexed,
// so the status must still read "running" and the result 409; once the seal
// returns, "done", the result and the overlap index entry arrive together.
func TestServeDoneOnlyAfterSeal(t *testing.T) {
	sched, err := distrib.NewScheduler(distrib.Options{Shards: testShards, Launcher: &worker{}, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	srv := New(sched, WithCacheDir(t.TempDir()))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := testSpec(17)
	e := &entry{hash: spec.CanonicalHash(), freshTrials: spec.Trials(spec.Whole())}
	merged, release := make(chan struct{}), make(chan struct{})
	seal := srv.seal(e, spec.CanonicalHashBase())
	job, err := sched.Submit(spec, nil, func(j *distrib.Job, res *fleet.SweepResult) error {
		close(merged)
		<-release
		return seal(j, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.job = job
	srv.mu.Lock()
	srv.sweeps[e.hash] = e
	srv.mu.Unlock()

	<-merged
	if st := getStatus(t, ts, e.hash); st.State != "running" || st.Done != st.Total {
		t.Errorf("merged job before its seal reads %q %d/%d, want running with every cell done", st.State, st.Done, st.Total)
	}
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+e.hash+"/result"); code != http.StatusConflict {
		t.Errorf("result before the seal: %d, want 409", code)
	}
	close(release)
	<-job.Done()
	if st := getStatus(t, ts, e.hash); st.State != "done" {
		t.Errorf("after the seal the sweep reads %q, want done", st.State)
	}
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+e.hash+"/result"); code != http.StatusOK {
		t.Errorf("result after the seal: %d, want 200", code)
	}
	srv.mu.Lock()
	info, indexed := srv.index[e.hash]
	srv.mu.Unlock()
	if !indexed {
		t.Error("a done sweep is missing from the overlap index")
	} else if info.base != spec.CanonicalHashBase() {
		t.Errorf("a done sweep is indexed under base %.12s, want %.12s", info.base, spec.CanonicalHashBase())
	}
}

// TestServeSealedResultUnreachable: a sealed sweep is kept as its artifact
// bytes alone. Once the seal has returned, the merged result it was handed
// is garbage — neither the entry nor the job (held here) reaches it, so its
// finalizer runs after a collection — and /result still serves the
// monolithic bytes.
func TestServeSealedResultUnreachable(t *testing.T) {
	sched, err := distrib.NewScheduler(distrib.Options{Shards: testShards, Launcher: &worker{}, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	srv := New(sched, WithCacheDir(t.TempDir()))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := testSpec(19)
	e := &entry{hash: spec.CanonicalHash(), freshTrials: spec.Trials(spec.Whole())}
	collected := make(chan struct{})
	seal := srv.seal(e, spec.CanonicalHashBase())
	job, err := sched.Submit(spec, nil, func(j *distrib.Job, res *fleet.SweepResult) error {
		runtime.SetFinalizer(res, func(*fleet.SweepResult) { close(collected) })
		return seal(j, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.job = job
	srv.mu.Lock()
	srv.addLocked(e)
	srv.mu.Unlock()
	<-job.Done()

	reclaimed := false
	for i := 0; i < 20 && !reclaimed; i++ {
		runtime.GC()
		select {
		case <-collected:
			reclaimed = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !reclaimed {
		t.Error("the merged result outlived its seal: something still holds the decoded sweep")
	}
	if res, err := job.Result(); !errors.Is(err, distrib.ErrResultSealed) || res != nil {
		t.Errorf("sealed job's Result: %p, %v; want no result kept and ErrResultSealed", res, err)
	}
	mono, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := mono.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	code, _, body := getBody(t, ts, "/v1/sweeps/"+e.hash+"/result")
	if code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("result after the merged result was reclaimed: %d, %d bytes; want the monolithic %d bytes", code, len(body), want.Len())
	}
	// An encoder's buffer grows by doubling; the kept copy is the
	// artifact's size, up to the allocator's size-class rounding (< 1/8).
	if slack := cap(e.artifact) - len(e.artifact); slack > len(e.artifact)/8 {
		t.Errorf("the entry holds %d artifact bytes in a %d-byte array, want its exact size", len(e.artifact), cap(e.artifact))
	}
}
