package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
)

// monitorPayload mirrors handleMonitor's response shape; Snapshot stays
// raw so byte-level schema checks see exactly what went over the wire.
type monitorPayload struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// TestServeMonitorLive: the monitor endpoint answers 200 on a sweep that
// is still running, with a well-formed (if empty, before any shard has
// landed) snapshot.
func TestServeMonitorLive(t *testing.T) {
	spec := testSpec(61)
	wk := &worker{gate: make(chan struct{})}
	ts := newTestServer(t, wk)
	_, st := postSpec(t, ts, spec)

	code, _, body := getBody(t, ts, "/v1/sweeps/"+st.ID+"/monitor")
	if code != http.StatusOK {
		t.Fatalf("monitor while running: %d, want 200", code)
	}
	var got monitorPayload
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID {
		t.Fatalf("monitor payload id %s, want %s", got.ID, st.ID)
	}
	if got.State != "queued" && got.State != "running" {
		t.Fatalf("monitor payload state %q, want queued or running", got.State)
	}
	var snap monitor.Snapshot
	if err := json.Unmarshal(got.Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != monitor.SchemaV1 {
		t.Fatalf("live snapshot schema %q, want %q", snap.Schema, monitor.SchemaV1)
	}
	if snap.Trials != 0 {
		t.Fatalf("gated sweep reported %d trials before any shard landed", snap.Trials)
	}

	close(wk.gate)
	waitState(t, ts, st.ID, "done")
}

// TestServeMonitorDone: on a finished sweep the endpoint's snapshot is
// byte-identical to a post-hoc monitor fold of the served artifact — the
// service's face of the incremental == batch contract.
func TestServeMonitorDone(t *testing.T) {
	spec := testSpec(62)
	ts := newTestServer(t, &worker{})
	_, st := postSpec(t, ts, spec)
	waitState(t, ts, st.ID, "done")

	code, _, body := getBody(t, ts, "/v1/sweeps/"+st.ID+"/monitor")
	if code != http.StatusOK {
		t.Fatalf("monitor of done sweep: %d", code)
	}
	var got monitorPayload
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != "done" {
		t.Fatalf("monitor payload state %q, want done", got.State)
	}

	_, _, artifact := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result")
	res, err := fleet.ReadJSON(bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := monitor.FromSweep(res, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The endpoint indents, the comparison doesn't care: round-trip the
	// served snapshot through the struct so both sides marshal identically.
	var served monitor.Snapshot
	if err := json.Unmarshal(got.Snapshot, &served); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(served)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Fatalf("served snapshot differs from a post-hoc fold of the artifact:\n%s\nvs\n%s",
			gotJSON, want)
	}
}

// TestServeMonitorErrorPaths: unknown ids 404, cancelled sweeps 410,
// failed sweeps 502 — the same non-answer contract as /result.
func TestServeMonitorErrorPaths(t *testing.T) {
	if code, _, _ := getBody(t, newTestServer(t, &worker{}), "/v1/sweeps/deadbeef/monitor"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", code)
	}

	wk := &worker{gate: make(chan struct{})}
	ts := newTestServer(t, wk)
	_, st := postSpec(t, ts, testSpec(63))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).State != "cancelled" {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/monitor"); code != http.StatusGone {
		t.Fatalf("monitor of cancelled sweep: %d, want 410", code)
	}

	tsf := newTestServer(t, &worker{fail: true})
	_, stf := postSpec(t, tsf, testSpec(64))
	deadline = time.Now().Add(30 * time.Second)
	for getStatus(t, tsf, stf.ID).State != "failed" {
		if time.Now().After(deadline) {
			t.Fatal("sweep never failed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _, _ := getBody(t, tsf, "/v1/sweeps/"+stf.ID+"/monitor"); code != http.StatusBadGateway {
		t.Fatalf("monitor of failed sweep: %d, want 502", code)
	}
}

// TestServeMonitorEvents: the SSE stream interleaves monitor frames with
// progress, and the final frame (emitted just before done) carries the
// exact post-hoc snapshot of the merged artifact.
func TestServeMonitorEvents(t *testing.T) {
	spec := testSpec(65)
	wk := &worker{gate: make(chan struct{})}
	ts := newTestServer(t, wk)
	_, st := postSpec(t, ts, spec)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(wk.gate)

	var lastMonitor []byte
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	var event string
	done := false
	for sc.Scan() && !done {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "monitor":
				frames++
				lastMonitor = []byte(data)
			case "done":
				done = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("no monitor frames on the event stream")
	}

	_, _, artifact := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result")
	res, err := fleet.ReadJSON(bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := monitor.FromSweep(res, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lastMonitor, want) {
		t.Fatalf("final monitor frame differs from the post-hoc fold:\n%s\nvs\n%s", lastMonitor, want)
	}
}

// TestServeMonitorLivePrefix: while a partial-overlap sweep's workers are
// held, its monitor already counts the cached prefix — a value the job
// holds, never written to the job's directory — and nothing else.
func TestServeMonitorLivePrefix(t *testing.T) {
	jobs := t.TempDir()
	// Only the partial job's fan-out — the prefix and testShards fresh
	// shards — is held.
	held := make(chan struct{})
	launcher := distrib.LauncherFunc(func(ctx context.Context, task distrib.Task, stderr io.Writer) error {
		if task.Count > testShards {
			select {
			case <-held:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return (&worker{}).Launch(ctx, task, stderr)
	})
	sched, err := distrib.NewScheduler(distrib.Options{Shards: testShards, Launcher: launcher, Dir: jobs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(New(sched, WithCacheDir(t.TempDir())).Handler())
	t.Cleanup(ts.Close)

	small := testSpec(66)
	_, stSmall := postSpec(t, ts, small)
	stSmall = waitState(t, ts, stSmall.ID, "done")
	big := small
	big.N *= 2
	code, st := postSpec(t, ts, big)
	if code != http.StatusAccepted || !st.Partial {
		t.Fatalf("overlapping POST: %d %+v, want a partial job", code, st)
	}

	code, _, body := getBody(t, ts, "/v1/sweeps/"+st.ID+"/monitor")
	if code != http.StatusOK {
		t.Fatalf("monitor of the running partial sweep: %d", code)
	}
	var got monitorPayload
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	var snap monitor.Snapshot
	if err := json.Unmarshal(got.Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	if got.State == "done" || snap.Trials != stSmall.TrialsComputed {
		t.Fatalf("held partial sweep (%s) monitors %d trials, want the cached prefix's %d", got.State, snap.Trials, stSmall.TrialsComputed)
	}
	if written, _ := filepath.Glob(filepath.Join(jobs, "*", fmt.Sprintf("sweep-shard-1-of-%d.json", testShards+1))); len(written) > 0 {
		t.Fatalf("the cached prefix was written to disk: %v", written)
	}
	close(held)
	waitState(t, ts, st.ID, "done")
}
