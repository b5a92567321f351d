package cli_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"phirel/internal/bench/all"
	"phirel/internal/cli"
	"phirel/internal/cli/phiserve"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
	"phirel/internal/serve"
	"phirel/internal/trace"
)

// workerEnv makes the test binary a phi-bench: the fan-out tools need a
// real worker process to launch, and this one runs the very Bench under
// test. Test-only; no product code reads it.
const workerEnv = "PHIREL_CLI_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		cli.Main(cli.Bench)
	}
	os.Exit(m.Run())
}

// call runs one tool in process with stdin and returns its exit status
// and both output streams.
func call(t *testing.T, fn cli.Func, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = fn(context.Background(), args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// mustCall runs a tool that has to succeed and returns its stdout.
func mustCall(t *testing.T, fn cli.Func, args ...string) string {
	t.Helper()
	code, stdout, stderr := call(t, fn, "", args...)
	if code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, stderr)
	}
	return stdout
}

// TestToolExitCodes: every tool answers -h with 0, a flag it does not
// know with 2 and a failure at run time with 1, naming itself on stderr.
func TestToolExitCodes(t *testing.T) {
	tools := []struct {
		name string
		fn   cli.Func
		fail []string // arguments that parse but cannot run
	}{
		{"carol-fi", cli.CarolFI, []string{"-policy", "nope"}},
		{"phi-beam", cli.Beam, []string{"-device", "nope"}},
		{"phi-bench", cli.Bench, []string{"-bench", "nope"}},
		{"phi-fleet", cli.Fleet, []string{"-models", "nope"}},
		{"phi-merge", cli.Merge, nil},
		{"phi-report", cli.Report, nil},
		{"phi-serve", phiserve.Serve, []string{"-k8s"}},
	}
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			if code, _, stderr := call(t, tool.fn, "", "-h"); code != 0 || !strings.Contains(stderr, "Usage of "+tool.name) {
				t.Errorf("-h exited %d, want 0 with usage:\n%s", code, stderr)
			}
			if code, _, stderr := call(t, tool.fn, "", "-no-such-flag"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
				t.Errorf("an unknown flag exited %d, want 2:\n%s", code, stderr)
			}
			code, _, stderr := call(t, tool.fn, "", tool.fail...)
			if code != 1 || !strings.HasPrefix(stderr, tool.name+": ") {
				t.Errorf("%v exited %d, want 1 with a %q line:\n%s", tool.fail, code, tool.name+": ", stderr)
			}
		})
	}
}

// lines counts the lines of a file.
func lines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestCarolFILogReportsItsTables: carol-fi logs one line per injection,
// and phi-report -in over that log prints, first, exactly the tables
// carol-fi printed (Table 1 per benchmark follows).
func TestCarolFILogReportsItsTables(t *testing.T) {
	log := filepath.Join(t.TempDir(), "inj.jsonl")
	printed := mustCall(t, cli.CarolFI, "-bench", "DGEMM", "-n", "40", "-workers", "2", "-out", log)
	if got := lines(t, log); got != 40 {
		t.Fatalf("carol-fi -n 40 logged %d records", got)
	}
	report := mustCall(t, cli.Report, "-in", log)
	if printed == "" || !strings.HasPrefix(report, printed) || len(report) == len(printed) {
		t.Fatalf("carol-fi printed\n%s\nphi-report -in over its log printed\n%s", printed, report)
	}
}

// TestBeamLogAndMonitorAgree: phi-beam logs one line per run of every
// benchmark it announces, and its monitor's last snapshot counts as many
// trials.
func TestBeamLogAndMonitorAgree(t *testing.T) {
	dir := t.TempDir()
	log, mon := filepath.Join(dir, "beam.jsonl"), filepath.Join(dir, "mon.jsonl")
	code, _, stderr := call(t, cli.Beam, "", "-runs", "30", "-workers", "2", "-out", log, "-monitor-jsonl", mon)
	if code != 0 {
		t.Fatalf("phi-beam exited %d:\n%s", code, stderr)
	}
	benches := strings.Count(stderr, "accelerated runs on")
	if benches != len(all.BeamSuite) {
		t.Fatalf("phi-beam announced %d benchmarks, want %d:\n%s", benches, len(all.BeamSuite), stderr)
	}
	got := lines(t, log)
	if got != 30*benches {
		t.Fatalf("phi-beam -runs 30 on %d benchmarks logged %d records", benches, got)
	}
	f, err := os.Open(mon)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snaps, err := trace.Read[monitor.Snapshot](f)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("monitor stream: %d snapshots, %v", len(snaps), err)
	}
	if last := snaps[len(snaps)-1].Trials; last != got {
		t.Fatalf("phi-beam logged %d records but its last monitor snapshot counts %d trials", got, last)
	}
}

// TestMonitorStreamIgnoresWorkers: a -monitor-jsonl stream is a function
// of what was counted, not of which worker finished first — phi-beam's
// monitor reads its log's reorder and phi-bench's the fleet hooks', so
// the stream is the same bytes at any -workers, a checkpointed plan run's
// included.
func TestMonitorStreamIgnoresWorkers(t *testing.T) {
	grid := []string{"-sweep", "-bench", "DGEMM,LUD,HotSpot", "-n", "40", "-beam-runs", "200", "-beam-ecc-ablation", "-policies", "by-frame,by-bytes"}
	for _, c := range []struct {
		name string
		fn   cli.Func
		args []string
	}{
		{"phi-beam", cli.Beam, []string{"-runs", "500", "-monitor-every", "50"}},
		{"sweep", cli.Bench, append(grid, "-monitor-every", "50")},
		{"plan", cli.Bench, append(grid, "-plan", "1/2:0+25:0+120", "-checkpoint-every", "10", "-monitor-every", "20")},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var first []byte
			for _, workers := range []string{"1", "3", "8"} {
				mon := filepath.Join(dir, "mon-"+workers+".jsonl")
				args := append(slices.Clip(c.args), "-workers", workers, "-monitor-jsonl", mon)
				if c.name == "plan" {
					args = append(args, "-checkpoint-out", filepath.Join(dir, "ck-"+workers+".json"))
				}
				mustCall(t, c.fn, args...)
				got, err := os.ReadFile(mon)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Fatalf("-workers %s streamed %d bytes, -workers 1 %d, and they differ", workers, len(got), len(first))
				}
			}
			if n := bytes.Count(first, []byte("\n")); n < 10 {
				t.Fatalf("the stream has %d lines; the check needs rolling ones", n)
			}
		})
	}
}

// TestMonitorEveryZero: -monitor-every 0 writes no rolling lines, so
// phi-beam streams one line per benchmark boundary (the last being the
// final line) and a phi-bench sweep the final line alone.
func TestMonitorEveryZero(t *testing.T) {
	dir := t.TempDir()
	beamMon, sweepMon := filepath.Join(dir, "beam.jsonl"), filepath.Join(dir, "sweep.jsonl")
	mustCall(t, cli.Beam, "-runs", "200", "-monitor-every", "0", "-monitor-jsonl", beamMon)
	mustCall(t, cli.Bench, "-sweep", "-bench", "DGEMM", "-n", "20", "-monitor-every", "0", "-monitor-jsonl", sweepMon)
	if got, want := lines(t, beamMon), len(all.BeamSuite); got != want {
		t.Errorf("phi-beam -monitor-every 0 streamed %d lines, want %d", got, want)
	}
	if got := lines(t, sweepMon); got != 1 {
		t.Errorf("phi-bench -sweep -monitor-every 0 streamed %d lines, want 1", got)
	}
}

// TestCampaignToolsFailOnUnwritableLog: a log that cannot be written is a
// failure, not a campaign that quietly loses its records.
func TestCampaignToolsFailOnUnwritableLog(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, c := range []struct {
		fn   cli.Func
		args []string
	}{
		{cli.CarolFI, []string{"-bench", "DGEMM", "-n", "3", "-workers", "1"}},
		{cli.Beam, []string{"-runs", "2", "-workers", "1"}},
	} {
		code, _, stderr := call(t, c.fn, "", append(c.args, "-out", "/dev/full")...)
		if code != 1 || !strings.Contains(stderr, "trace: flush") {
			t.Errorf("%v -out /dev/full exited %d, want 1 with a flush error:\n%s", c.args, code, stderr)
		}
	}
}

// TestBeamUnopenableLogLeavesNoMonitorStream: phi-beam whose -out cannot
// be created exits 1 naming it and leaves no -monitor-jsonl file behind.
func TestBeamUnopenableLogLeavesNoMonitorStream(t *testing.T) {
	dir := t.TempDir()
	mon := filepath.Join(dir, "m.jsonl")
	bad := filepath.Join(dir, "missing", "x.jsonl")
	code, _, stderr := call(t, cli.Beam, "", "-runs", "2", "-workers", "1", "-out", bad, "-monitor-jsonl", mon)
	if code != 1 || !strings.Contains(stderr, bad) {
		t.Errorf("phi-beam -out %s exited %d, want 1 naming the log:\n%s", bad, code, stderr)
	}
	if _, err := os.Stat(mon); !os.IsNotExist(err) {
		t.Errorf("a run that never started left its monitor stream behind (stat: %v)", err)
	}
}

// TestCampaignToolsInterrupted: a cancelled campaign exits 1 naming the
// cancellation, and says how many records its closed, still valid log
// holds.
func TestCampaignToolsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		tool string
		fn   cli.Func
		args []string
	}{
		{"carol-fi", cli.CarolFI, []string{"-bench", "DGEMM", "-n", "50"}},
		{"phi-beam", cli.Beam, []string{"-runs", "50"}},
	} {
		log := filepath.Join(t.TempDir(), "log.jsonl")
		var stderr bytes.Buffer
		code := c.fn(ctx, append(c.args, "-out", log), strings.NewReader(""), io.Discard, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), c.tool+": interrupted; ") || !strings.HasSuffix(stderr.String(), c.tool+": context canceled\n") {
			t.Errorf("%s on a cancelled context exited %d:\n%s", c.tool, code, stderr.String())
		}
		f, err := os.Open(log)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Read[map[string]any](f); err != nil {
			t.Errorf("%s left an unreadable log: %v", c.tool, err)
		}
		f.Close()
	}
}

// TestBenchGoldenRuns: without -sweep, phi-bench times the suite's golden
// runs.
func TestBenchGoldenRuns(t *testing.T) {
	out := mustCall(t, cli.Bench, "-bench", "DGEMM", "-reps", "1")
	if !strings.Contains(out, "golden runs") || !strings.Contains(out, "DGEMM") {
		t.Fatalf("phi-bench -bench DGEMM printed:\n%s", out)
	}
}

// gridArgs is the tiny mixed sweep the fan-out tests run: injection and
// beam cells, both ECC arms.
var gridArgs = []string{"-bench", "DGEMM", "-n", "8", "-models", "Single,Zero", "-beam-runs", "12", "-beam-ecc-ablation", "-workers", "2"}

// workerCmd makes the test binary the worker the fan-out tools launch.
func workerCmd(t *testing.T) string {
	t.Setenv(workerEnv, "1")
	return os.Args[0]
}

// TestFleetMatchesBench: a 2-way phi-fleet fan-out writes the bytes
// phi-bench -sweep writes for the same grid flags, and phi-report -sweep
// renders them.
func TestFleetMatchesBench(t *testing.T) {
	mono := mustCall(t, cli.Bench, append([]string{"-sweep", "-out", "-"}, gridArgs...)...)
	fanned := mustCall(t, cli.Fleet, append([]string{"-shards", "2", "-worker-cmd", workerCmd(t), "-quiet", "-out", "-"}, gridArgs...)...)
	if mono == "" || fanned != mono {
		t.Fatalf("phi-fleet -shards 2 wrote %d bytes unlike phi-bench -sweep's %d", len(fanned), len(mono))
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(mono), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := mustCall(t, cli.Report, "-sweep", path); !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 2") {
		t.Fatalf("phi-report -sweep rendered no injection or beam figures:\n%s", out)
	}
}

// syncBuffer is a bytes.Buffer a running tool writes while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeAnswersOnItsBoundAddress: phi-serve on port 0 logs the address
// it bound; a spec POSTed there computes, on a launched worker, the bytes
// phi-bench -sweep writes for it; cancelling the context ends the service
// with status 0 and removes the work directory it made.
func TestServeAnswersOnItsBoundAddress(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	spec := fleet.Sweep{
		Benchmarks: []string{"DGEMM"}, Models: []fault.Model{fault.Single},
		N: 8, Seed: 7, BenchSeed: 1, Workers: 2,
	}
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.WriteSpecFile(specPath); err != nil {
		t.Fatal(err)
	}
	want := mustCall(t, cli.Bench, "-spec", specPath, "-out", "-")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	args := []string{"-addr", "127.0.0.1:0", "-cache-dir", "", "-shards", "1", "-worker-cmd", workerCmd(t)}
	// Serve's stderr is read as it writes: the first "listening on" line
	// names the address, and every line is kept for failure messages.
	pr, pw := io.Pipe()
	var stderr syncBuffer
	bound, read := make(chan string, 1), make(chan struct{})
	go func() {
		defer close(read)
		listening := regexp.MustCompile(`^phi-serve: listening on (\S+) `)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			stderr.Write(append(sc.Bytes(), '\n'))
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				bound <- m[1]
			}
		}
	}()
	done := make(chan int, 1)
	go func() {
		done <- phiserve.Serve(ctx, args, strings.NewReader(""), io.Discard, pw)
		pw.Close()
	}()
	var addr string
	select {
	case addr = <-bound:
	case code := <-done:
		t.Fatalf("phi-serve exited %d before listening:\n%s", code, stderr.String())
	}
	base := "http://" + addr + "/v1/sweeps"

	var body bytes.Buffer
	if err := spec.WriteSpec(&body); err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	getJSON(t, http.MethodPost, base, &body, &st)
	for deadline := time.Now().Add(20 * time.Second); st.State != "done"; time.Sleep(20 * time.Millisecond) {
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("sweep %s is %s:\n%s", st.ID, st.State, stderr.String())
		}
		getJSON(t, http.MethodGet, base+"/"+st.ID, nil, &st)
	}
	resp, err := http.Get(base + "/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(got) != want {
		t.Fatalf("/result gave %d bytes (%v) unlike phi-bench -sweep's %d", len(got), err, len(want))
	}

	cancel()
	code := <-done
	<-read
	if code != 0 || !strings.Contains(stderr.String(), "phi-serve: shutting down") {
		t.Fatalf("phi-serve exited %d after cancel:\n%s", code, stderr.String())
	}
	left, err := filepath.Glob(filepath.Join(tmp, "phi-serve-*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("phi-serve left its work directory behind: %v %v", left, err)
	}
}

// getJSON sends one request and decodes its JSON answer into v.
func getJSON(t *testing.T, method, url string, body io.Reader, v any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: %s %s", method, url, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
