package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
)

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	code, _, body := getBody(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeOverlapPartial is the tentpole's acceptance test at the HTTP
// layer: after an N-trial sweep is cached, the same question at 2N is
// admitted as a partial-overlap job — workers compute exactly the missing
// N trials, the artifact is byte-identical to a monolithic 2N run, and the
// stats and admission log record the split.
func TestServeOverlapPartial(t *testing.T) {
	small := testSpec(61)
	big := small
	big.N *= 2
	wk := &worker{}
	logPath := filepath.Join(t.TempDir(), "admission.jsonl")
	ts := newTestServer(t, wk, WithCacheDir(t.TempDir()), WithAdmissionLog(logPath))

	_, stSmall := postSpec(t, ts, small)
	stSmall = waitState(t, ts, stSmall.ID, "done")
	if stSmall.TrialsComputed == 0 {
		t.Fatalf("cold sweep reports no computed trials: %+v", stSmall)
	}
	weight := stSmall.TrialsComputed // cell-weighted trials of the N-sized sweep

	before := wk.planInj.Load()
	code, st := postSpec(t, ts, big)
	if code != http.StatusAccepted {
		t.Fatalf("overlapping POST: %d, want 202", code)
	}
	if !st.Partial || st.Prefix != small.CanonicalHash() {
		t.Fatalf("overlapping POST status %+v, want partial with prefix %.12s", st, small.CanonicalHash())
	}
	if st.TrialsFromCache != weight || st.TrialsComputed != weight {
		t.Fatalf("2N request split %d cached / %d computed, want %d / %d",
			st.TrialsFromCache, st.TrialsComputed, weight, weight)
	}
	waitState(t, ts, st.ID, "done")

	// The headline property: doubling N computed only N fresh per-cell
	// trials, not 2N.
	if got := wk.planInj.Load() - before; got != int64(big.N-small.N) {
		t.Fatalf("fresh workers computed %d per-cell trials, want exactly the missing %d", got, big.N-small.N)
	}

	code, _, body := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("partial result: %d", code)
	}
	mono, err := big.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var monoJSON bytes.Buffer
	if err := mono.WriteJSON(&monoJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, monoJSON.Bytes()) {
		t.Fatal("partial-overlap artifact differs from a monolithic run")
	}

	// A repeat of the 2N request is now a plain full hit.
	code, st2 := postSpec(t, ts, big)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("repeat of partial sweep: %d %+v, want 200 cached", code, st2)
	}

	stats := getStats(t, ts)
	if stats.Submissions != 3 || stats.Misses != 1 || stats.PartialHits != 1 || stats.FullHits != 1 {
		t.Fatalf("stats %+v, want 3 submissions = 1 miss + 1 partial + 1 full", stats)
	}
	if stats.TrialsComputed != int64(2*weight) {
		t.Fatalf("stats report %d trials computed, want %d (N cold + N fresh)", stats.TrialsComputed, 2*weight)
	}
	if stats.TrialsFromCache != int64(3*weight) {
		t.Fatalf("stats report %d trials from cache, want %d (partial prefix + full hit)", stats.TrialsFromCache, 3*weight)
	}
	if stats.CacheEntries != 2 || stats.CacheBytes <= 0 {
		t.Fatalf("stats report cache extent %d entries / %d bytes, want 2 entries", stats.CacheEntries, stats.CacheBytes)
	}

	// The admission log carries the same story, one JSONL line per POST.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("admission log has %d lines, want 3:\n%s", len(lines), data)
	}
	var recs []AdmissionRecord
	for _, line := range lines {
		var rec AdmissionRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("admission line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if recs[0].Outcome != "miss" || recs[1].Outcome != "partial" || recs[2].Outcome != "full" {
		t.Fatalf("admission outcomes %s/%s/%s, want miss/partial/full", recs[0].Outcome, recs[1].Outcome, recs[2].Outcome)
	}
	if recs[1].Prefix != small.CanonicalHash() || recs[1].TrialsFromCache != weight || recs[1].TrialsComputed != weight {
		t.Fatalf("partial admission %+v, want prefix %.12s and a %d/%d split", recs[1], small.CanonicalHash(), weight, weight)
	}
	if recs[1].Base != big.CanonicalHashBase() || recs[1].Base != recs[0].Base {
		t.Fatal("admission base hashes do not group the overlapping sweeps")
	}
}

// TestServeOverlapProperty drives the planner across random cached-coverage
// × request-size combinations: every admitted partial computes exactly the
// missing trials and folds to the monolithic bytes. A final request over a
// multi-candidate index must pick the largest prefix.
func TestServeOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	wk := &worker{}
	ts := newTestServer(t, wk, WithCacheDir(t.TempDir()))

	var first fleet.Sweep
	for i := 0; i < 4; i++ {
		reqN := 4 + rng.Intn(8)
		cachedN := 1 + rng.Intn(reqN-1)
		cached := testSpec(uint64(100 + i))
		cached.N = cachedN
		req := cached
		req.N = reqN
		if i == 0 {
			first = req
		}

		_, st := postSpec(t, ts, cached)
		waitState(t, ts, st.ID, "done")
		before := wk.planInj.Load()

		code, st2 := postSpec(t, ts, req)
		if code != http.StatusAccepted || !st2.Partial || st2.Prefix != cached.CanonicalHash() {
			t.Fatalf("case %d (%d over %d): %d %+v, want partial on the cached prefix", i, reqN, cachedN, code, st2)
		}
		waitState(t, ts, st2.ID, "done")
		if got := wk.planInj.Load() - before; got != int64(reqN-cachedN) {
			t.Fatalf("case %d: computed %d per-cell trials, want %d", i, got, reqN-cachedN)
		}

		_, _, body := getBody(t, ts, "/v1/sweeps/"+st2.ID+"/result")
		mono, err := req.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var monoJSON bytes.Buffer
		if err := mono.WriteJSON(&monoJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, monoJSON.Bytes()) {
			t.Fatalf("case %d (%d cached of %d): folded artifact not byte-identical to monolithic", i, cachedN, reqN)
		}
	}

	// The first base now has two cached artifacts (cachedN and reqN): a
	// still-larger request must reuse the larger one.
	bigger := first
	bigger.N += 3
	before := wk.planInj.Load()
	code, st := postSpec(t, ts, bigger)
	if code != http.StatusAccepted || !st.Partial || st.Prefix != first.CanonicalHash() {
		t.Fatalf("multi-candidate POST: %d %+v, want partial on the largest prefix %.12s", code, st, first.CanonicalHash())
	}
	waitState(t, ts, st.ID, "done")
	if got := wk.planInj.Load() - before; got != 3 {
		t.Fatalf("multi-candidate request computed %d per-cell trials, want 3", got)
	}
}

// TestServeEviction: the size bound evicts the least-recently-used
// artifact atomically — disk file, overlap index, and resident entry — so
// the evicted id 404s and resubmission recomputes it.
func TestServeEviction(t *testing.T) {
	probe, err := testSpec(71).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := probe.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	size := int64(buf.Len())

	cacheDir := t.TempDir()
	wk := &worker{}
	ts := newTestServer(t, wk, WithCacheDir(cacheDir), WithCacheMaxBytes(2*size+size/2))

	var ids []string
	for _, seed := range []uint64{71, 72, 73} {
		_, st := postSpec(t, ts, testSpec(seed))
		waitState(t, ts, st.ID, "done")
		ids = append(ids, st.ID)
	}

	// The third store crossed the bound; the first sweep is the LRU victim.
	for _, path := range []string{"/v1/sweeps/" + ids[0], "/v1/sweeps/" + ids[0] + "/result"} {
		if code, _, _ := getBody(t, ts, path); code != http.StatusNotFound {
			t.Fatalf("GET %s after eviction: %d, want 404", path, code)
		}
	}
	for _, id := range ids[1:] {
		if code, _, _ := getBody(t, ts, "/v1/sweeps/"+id+"/result"); code != http.StatusOK {
			t.Fatalf("survivor %.12s result: %d", id, code)
		}
	}

	// On disk: exactly the two survivors, no victim file, no tmp leftovers.
	dirents, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, de := range dirents {
		if strings.Contains(de.Name(), ".tmp-") {
			t.Fatalf("tmp file %s left in the cache dir", de.Name())
		}
		names[de.Name()] = true
	}
	if len(names) != 2 || names[ids[0]+".json"] || !names[ids[1]+".json"] || !names[ids[2]+".json"] {
		t.Fatalf("cache dir holds %v, want exactly the two survivors", names)
	}

	stats := getStats(t, ts)
	if stats.Evictions != 1 || stats.CacheEntries != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2 entries", stats)
	}

	// The evicted sweep is recomputed on resubmission, not resurrected.
	code, st := postSpec(t, ts, testSpec(71))
	if code != http.StatusAccepted {
		t.Fatalf("resubmission of evicted sweep: %d, want 202", code)
	}
	waitState(t, ts, st.ID, "done")
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result"); code != http.StatusOK {
		t.Fatalf("recomputed result: %d", code)
	}
}

// TestServeResultNotModified: the artifact is immutable per content
// address, so a conditional GET with the sweep's ETag short-circuits to
// 304 without a body.
func TestServeResultNotModified(t *testing.T) {
	spec := testSpec(81)
	ts := newTestServer(t, &worker{})
	_, st := postSpec(t, ts, spec)
	waitState(t, ts, st.ID, "done")
	etag := `"` + st.ID + `"`

	get := func(inm string) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/result", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := make([]byte, 1)
		n, _ := resp.Body.Read(body)
		return resp.StatusCode, resp.Header, body[:n]
	}

	for _, inm := range []string{etag, "W/" + etag, "*", `"deadbeef", ` + etag} {
		code, hdr, body := get(inm)
		if code != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("If-None-Match %q: %d with %d body bytes, want empty 304", inm, code, len(body))
		}
		if hdr.Get("ETag") != etag {
			t.Fatalf("304 response ETag %q, want %q", hdr.Get("ETag"), etag)
		}
	}
	for _, inm := range []string{"", `"deadbeef"`} {
		if code, _, _ := get(inm); code != http.StatusOK {
			t.Fatalf("If-None-Match %q: %d, want 200", inm, code)
		}
	}
}

// TestServeCacheByteTotal: the cache's running byte total equals the
// sizes of the files it indexes — and the sum over its records — through
// stores, LRU evictions, and an invalid entry the planner drops.
func TestServeCacheByteTotal(t *testing.T) {
	cacheDir := t.TempDir()
	check := func(srv *Server, when string) {
		t.Helper()
		dirents, err := os.ReadDir(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		var onDisk, summed int64
		for _, de := range dirents {
			if info, err := de.Info(); err == nil && cacheFileRe.MatchString(de.Name()) {
				if _, indexed := srv.index[strings.TrimSuffix(de.Name(), ".json")]; indexed {
					onDisk += info.Size()
				}
			}
		}
		for _, info := range srv.index {
			summed += info.size
		}
		srv.mu.Unlock()
		st := srv.StatsSnapshot()
		if st.CacheBytes != summed || st.CacheBytes != onDisk || st.CacheEntries != int64(len(srv.index)) {
			t.Fatalf("%s: stats count %d entries, %d bytes; the index sums %d bytes, the indexed files %d",
				when, st.CacheEntries, st.CacheBytes, summed, onDisk)
		}
	}
	newServer := func(opts ...Option) (*Server, *httptest.Server) {
		sched, err := distrib.NewScheduler(distrib.Options{Shards: testShards, Launcher: &worker{}, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sched.Close)
		srv := New(sched, append(opts, WithCacheDir(cacheDir))...)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}

	probe, err := testSpec(91).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := probe.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	srv, ts := newServer(WithCacheMaxBytes(int64(3 * buf.Len())))
	for _, seed := range []uint64{91, 92, 93, 94, 95} {
		_, st := postSpec(t, ts, testSpec(seed))
		waitState(t, ts, st.ID, "done")
		check(srv, fmt.Sprintf("after storing seed %d", seed))
	}
	if st := srv.StatsSnapshot(); st.Evictions == 0 {
		t.Fatalf("five stores under a three-artifact bound evicted nothing: %+v", st)
	}

	// A restarted server indexes what is on disk; one file is then
	// corrupted behind its back, and a larger same-base request drops it
	// when the planner tries to mount it.
	srv, ts = newServer()
	check(srv, "after the restart scan")
	victim := testSpec(95)
	if err := os.WriteFile(filepath.Join(cacheDir, victim.CanonicalHash()+".json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	big := victim
	big.N *= 2
	code, st := postSpec(t, ts, big)
	if code != http.StatusAccepted || st.Partial {
		t.Fatalf("request over a corrupted prefix: %d %+v, want a cold job", code, st)
	}
	srv.mu.Lock()
	_, stillIndexed := srv.index[victim.CanonicalHash()]
	srv.mu.Unlock()
	if stillIndexed {
		t.Fatal("the planner kept an artifact that no longer loads")
	}
	waitState(t, ts, st.ID, "done")
	check(srv, "after the invalid entry was dropped and the cold job stored")
}

// TestServeStatsResident: /v1/stats counts the sweeps held in memory and
// the artifact bytes they keep — the bytes /result serves — from a fresh
// compute, from a cache file and through an eviction.
func TestServeStatsResident(t *testing.T) {
	cacheDir := t.TempDir()
	ts := newTestServer(t, &worker{}, WithCacheDir(cacheDir))
	if st := getStats(t, ts); st.ResidentEntries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("empty server stats %+v, want no resident set", st)
	}
	var ids []string
	var bytesServed int64
	for _, seed := range []uint64{96, 97} {
		_, st := postSpec(t, ts, testSpec(seed))
		waitState(t, ts, st.ID, "done")
		_, _, body := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result")
		ids = append(ids, st.ID)
		bytesServed += int64(len(body))
	}
	if st := getStats(t, ts); st.ResidentEntries != 2 || st.ResidentBytes != bytesServed {
		t.Fatalf("after two sweeps: %d resident entries, %d bytes; want 2 and the %d bytes served", st.ResidentEntries, st.ResidentBytes, bytesServed)
	}

	// A second server over the same cache: a GET resurrects one artifact
	// from disk, and a bound that holds one artifact evicts it again when
	// the other is stored.
	_, _, first := getBody(t, ts, "/v1/sweeps/"+ids[0]+"/result")
	ts2 := newTestServer(t, &worker{}, WithCacheDir(cacheDir), WithCacheMaxBytes(int64(len(first))+1))
	if code, _, _ := getBody(t, ts2, "/v1/sweeps/"+ids[0]); code != http.StatusOK {
		t.Fatalf("cached sweep on a restarted server: %d", code)
	}
	if st := getStats(t, ts2); st.ResidentEntries != 1 || st.ResidentBytes != int64(len(first)) {
		t.Fatalf("after a resurrection: %d resident entries, %d bytes; want 1 and %d", st.ResidentEntries, st.ResidentBytes, len(first))
	}
	_, st := postSpec(t, ts2, testSpec(98))
	waitState(t, ts2, st.ID, "done")
	_, _, last := getBody(t, ts2, "/v1/sweeps/"+st.ID+"/result")
	stats := getStats(t, ts2)
	if stats.Evictions == 0 || stats.ResidentEntries != 1 || stats.ResidentBytes != int64(len(last)) {
		t.Fatalf("after evictions: %+v; want only the last sweep's %d bytes resident", stats, len(last))
	}
}

// TestServeOverlapEmptyList: a spec may spell an unused list as [] — which
// decodes to an empty slice, while the spec file the workers read omits it
// — and a partial-overlap job over such a spec still folds its cached
// prefix with the fresh partials into the monolithic bytes.
func TestServeOverlapEmptyList(t *testing.T) {
	ts := newTestServer(t, &worker{}, WithCacheDir(t.TempDir()))
	post := func(n int) Status {
		t.Helper()
		body := fmt.Sprintf(`{"benchmarks":["DGEMM"],"models":[0],"n":%d,"seed":67,"benchSeed":1,"workers":1,"beamBenchmarks":[]}`, n)
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitState(t, ts, post(6).ID, "done")
	st := post(12)
	if !st.Partial {
		t.Fatalf("the larger request was not admitted as a partial job: %+v", st)
	}
	waitState(t, ts, st.ID, "done")
	spec := testSpec(67)
	spec.N = 12
	mono, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := mono.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if _, _, got := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result"); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("the folded artifact differs from the monolithic run")
	}
}
