// Command benchmark measures the whole sweep path, end to end and layer by
// layer: four workloads that each stress different layers, a per-layer
// ledger of microbenchmarks, and a traced run whose spans say where each
// workload's time went. It measures every layer from outside, by timing
// calls into public functions, and checks every artifact it times against
// another execution path. See README.md.
//
// One workload, as the benchmark driver runs it (the last line of standard
// output is the result as one JSON object):
//
//	go run -C benchmark . --workload inject_grid --seed 7 --seconds 15 --trace 0
//
// Everything: the four workloads, then the traced pass and the ledger:
//
//	go run -C benchmark . -seed 1701 [-out report.json] [-trace-out spans.jsonl]
//
// The end-to-end set twice on one tree, compared against its own bounds:
//
//	go run -C benchmark . -aa [-baseline report.json]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "phirel/internal/bench/all"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as JSON on the last line; empty runs all four and the traced pass")
		seed         = flag.Uint64("seed", 1701, "seed of every generated spec and of the serve script order")
		seconds      = flag.Float64("seconds", runSeconds, "how long each workload measures")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		scaleName    = flag.String("scale", "full", "body sizes: full, or smoke for a seconds-long check of the benchmark itself")
		aa           = flag.Bool("aa", false, "run the end-to-end set twice on this tree and compare the two against the bounds")
		baseline     = flag.String("baseline", "", "with -aa: compare one run against this saved report instead of a second run")
		out          = flag.String("out", "", "write the report as JSON here")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans here as JSON lines (default: under benchmark/.work)")
		child        = flag.Bool("child", false, "internal: run the workload in this process and print its result")
		worker       = flag.String("worker", "", "internal: the built phi-bench binary")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q", *scaleName))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	h := &harness{
		root:  root,
		work:  filepath.Join(root, "benchmark", ".work"),
		base:  config{seed: *seed, seconds: *seconds, sc: sc, nproc: runtime.NumCPU(), worker: *worker},
		spans: *traceOut,
	}
	if h.spans == "" {
		h.spans = filepath.Join(h.work, "spans.jsonl")
	}
	if err := os.MkdirAll(h.work, 0o755); err != nil {
		fatal(err)
	}

	if *child {
		cfg := h.base
		cfg.workload, cfg.trace, cfg.traceOut = *workloadName, *trace == 1, *traceOut
		cfg.dir = filepath.Join(h.work, fmt.Sprintf("run-%d", os.Getpid()))
		defer os.RemoveAll(cfg.dir)
		if err := json.NewEncoder(os.Stdout).Encode(runWorkload(ctx, cfg)); err != nil {
			fatal(err)
		}
		return
	}

	switch {
	case *workloadName != "":
		err = h.driver(ctx, *workloadName, *trace == 1)
	case *aa:
		err = h.aa(ctx, *baseline, *out)
	default:
		err = h.everything(ctx, *out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory whose go.mod declares module phirel.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module phirel\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module phirel at or above the working directory")
		}
		dir = parent
	}
}

// harness runs workloads in child processes of this binary, so that each
// one's CPU time and peak resident set are its own: the parent's, and the
// compiler's when the parent builds the worker, stay out of them.
type harness struct {
	root  string // the checkout
	work  string // scratch directory inside it
	base  config
	spans string
}

// buildWorker builds this checkout's phi-bench for every later run to exec,
// and returns how long the build took.
func (h *harness) buildWorker(ctx context.Context) (float64, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return 0, fmt.Errorf("building the phi-bench worker needs the go toolchain: %w", err)
	}
	bin := filepath.Join(h.work, "bin", "phi-bench")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/phi-bench")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/phi-bench: %w: %s", err, out)
	}
	h.base.worker = bin
	return time.Since(start).Seconds(), nil
}

// run measures one workload in a child process. Only fanout_ckpt and a
// traced run's ledger exec a worker; for them the worker is built first,
// once per set-up the child makes, and the median build time is added to
// the child's setup_s.
func (h *harness) run(ctx context.Context, name string, trace bool) (result, error) {
	var builds []float64
	if name == "fanout_ckpt" || trace {
		setups := h.base.sc.setups
		if trace {
			setups = 1
		}
		for i := 0; i < setups; i++ {
			took, err := h.buildWorker(ctx)
			if err != nil {
				return result{}, err
			}
			builds = append(builds, took)
		}
	}
	cfg := h.base

	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-child", "-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-scale", cfg.sc.name, "-worker", cfg.worker,
	}
	if trace {
		args = append(args, "-trace", "1", "-trace-out", h.spans+"."+name)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Dir = filepath.Join(h.root, "benchmark")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("workload %s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
		return result{}, fmt.Errorf("workload %s: reading the child's result: %w", name, err)
	}
	if !trace && len(builds) > 0 {
		res.Metrics["setup_s"] += median(builds)
	}
	return res, nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// driver runs one workload and prints the one-line result the benchmark
// driver reads. A traced run also runs the ledger, in this process.
func (h *harness) driver(ctx context.Context, name string, trace bool) error {
	res, err := h.run(ctx, name, trace)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer()
		t := &tally{}
		for k, v := range h.ledger(ctx, t) {
			res.Metrics[k] = v
		}
		res.Attempted, res.Failed = res.Attempted+t.attempted, res.Failed+t.failed
		res.Failures = append(res.Failures, t.failures...)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, report(defs, res.Metrics)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// ledger runs the microbenchmarks in this process, in a scratch directory
// of their own.
func (h *harness) ledger(ctx context.Context, t *tally) map[string]float64 {
	cfg := h.base
	cfg.dir = filepath.Join(h.work, fmt.Sprintf("ledger-%d", os.Getpid()))
	defer os.RemoveAll(cfg.dir)
	return runLedger(ctx, cfg, t)
}

// environment is what must match before two reports may be compared.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

// fileReport is a saved run: the environment, and per workload the
// end-to-end metrics and, after a traced pass, the per-layer metrics.
type fileReport struct {
	Env      environment                   `json:"env"`
	EndToEnd map[string]map[string]float64 `json:"endToEnd"`
	PerLayer map[string]map[string]float64 `json:"perLayer,omitempty"`
	Failed   int                           `json:"failed"`
}

func (h *harness) env() environment {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: h.base.seed, Scale: h.base.sc.name, Seconds: h.base.seconds,
	}
}

// pass runs every workload once, traced or not, printing each metric by
// name with its unit as it lands.
func (h *harness) pass(ctx context.Context, trace bool, rep *fileReport) error {
	defs, into := endToEnd, rep.EndToEnd
	if trace {
		defs, into = perLayer(), rep.PerLayer
	}
	for _, wl := range workloads {
		res, err := h.run(ctx, wl.Name, trace)
		if err != nil {
			return err
		}
		into[wl.Name] = res.Metrics
		rep.Failed += res.Failed
		fmt.Printf("\n%s: %d repetitions, %d operations, %d failed\n", wl.Name, res.Reps, res.Attempted, res.Failed)
		for _, f := range res.Failures {
			fmt.Println("  FAILED:", f)
		}
		for _, d := range defs {
			v, seen := res.Metrics[d.Name]
			if !seen {
				continue
			}
			fmt.Printf("  %-28s %14.4f %-6s", d.Name, v, d.Unit)
			if q, ok := res.Quartiles[d.Name]; ok {
				fmt.Printf(" (quartiles %.4f .. %.4f)", q[0], q[1])
			}
			fmt.Println()
		}
	}
	return nil
}

// everything is the one command: the four workloads with tracing off, the
// four again traced, and the ledger.
func (h *harness) everything(ctx context.Context, out string) error {
	rep := &fileReport{Env: h.env(), EndToEnd: map[string]map[string]float64{}, PerLayer: map[string]map[string]float64{}}
	fmt.Printf("benchmark: %+v\n", rep.Env)
	if err := h.pass(ctx, false, rep); err != nil {
		return err
	}
	fmt.Println("\ntraced pass")
	if err := h.pass(ctx, true, rep); err != nil {
		return err
	}

	t := &tally{}
	ledger := h.ledger(ctx, t)
	rep.PerLayer["ledger"] = ledger
	rep.Failed += t.failed
	fmt.Printf("\nledger: %d operations, %d failed\n", t.attempted, t.failed)
	for _, f := range t.failures {
		fmt.Println("  FAILED:", f)
	}
	for _, d := range perLayer() {
		if v, ok := ledger[d.Name]; ok {
			fmt.Printf("  %-28s %14.4f %-6s -> %s\n", d.Name, v, d.Unit, d.Moves)
		}
	}

	if err := h.joinSpans(); err != nil {
		return err
	}
	fmt.Println("\nspans written to", h.spans)
	if err := writeReport(out, rep); err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d operations failed", rep.Failed)
	}
	return nil
}

// joinSpans concatenates the span files the traced children wrote into one.
func (h *harness) joinSpans() error {
	f, err := os.Create(h.spans)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, wl := range workloads {
		part := h.spans + "." + wl.Name
		data, err := os.ReadFile(part)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(data)
		os.Remove(part)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(path string, rep *fileReport) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// aa runs the end-to-end set twice on this tree, or once against a saved
// report, and holds the pair to the benchmark's own bounds.
func (h *harness) aa(ctx context.Context, baseline, out string) error {
	first := &fileReport{Env: h.env(), EndToEnd: map[string]map[string]float64{}}
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		first = &fileReport{}
		if err := json.Unmarshal(data, first); err != nil {
			return fmt.Errorf("%s: %w", baseline, err)
		}
	} else if err := h.pass(ctx, false, first); err != nil {
		return err
	}
	second := &fileReport{Env: h.env(), EndToEnd: map[string]map[string]float64{}}
	if err := h.pass(ctx, false, second); err != nil {
		return err
	}
	if err := writeReport(out, second); err != nil {
		return err
	}
	return compare(os.Stdout, first, second)
}
