// Command phi-serve runs the sweep service: a resident HTTP server that
// accepts canonical sweep specs, schedules them on the distrib fan-out
// scheduler (shared concurrency budget, per-sweep cancellation), streams
// progress over server-sent events, and serves merged artifacts and
// rendered paper figures. Sweep IDs are canonical spec hashes, so the
// artifact cache is content-addressed: a repeated question is answered
// from cache with zero compute, byte-identical to the first answer, and
// identical concurrent submissions coalesce onto one in-flight job.
// Overlapping questions reuse cached prefixes: a sweep whose base-equal
// smaller sibling is cached computes only the missing trial ranges (the
// partial-overlap planner; see internal/serve). -cache-max-bytes bounds
// the cache with LRU eviction, -admission-log records each submission's
// cache outcome, and GET /v1/stats serves the cumulative counters.
//
// Usage:
//
//	phi-serve -addr :8421 -cache-dir serve-cache -shards 4
//	phi-serve -cache-max-bytes 1073741824 -admission-log admissions.jsonl
//	phi-serve -addr :8421 -worker-cmd bin/phi-bench -max-concurrent 8
//	phi-serve -ssh node1,node2 -ssh-bin /opt/phirel/phi-bench
//	phi-serve -k8s -k8s-image ghcr.io/you/phirel:latest
//
//	curl -d @spec.json localhost:8421/v1/sweeps
//	curl localhost:8421/v1/sweeps/<id>
//	curl -N localhost:8421/v1/sweeps/<id>/events
//	curl localhost:8421/v1/sweeps/<id>/result
//	curl "localhost:8421/v1/sweeps/<id>/figures?format=text"
//
// Worker transports and supervision flags mirror cmd/phi-fleet exactly
// (the surfaces are shared through internal/cli), so anything a one-shot
// fan-out can do, the service can serve.
package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"phirel/internal/cli"
	"phirel/internal/distrib"
	"phirel/internal/serve"
)

// A client gets readHeaderTimeout to send its request headers, and an idle
// keep-alive connection is closed after idleTimeout, so neither a stalled
// nor a forgotten connection holds a goroutine and a descriptor for good.
// No whole-request or write timeout: /events streams for a sweep's lifetime.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var fleetFlags cli.FleetFlags
	fleetFlags.Register(flag.CommandLine)
	var worker cli.WorkerFlags
	worker.Register(flag.CommandLine)
	var k8s cli.K8sFlags
	k8s.Register(flag.CommandLine)
	var (
		addr          = flag.String("addr", ":8421", "listen address")
		cacheDir      = flag.String("cache-dir", "serve-cache", "persistent content-addressed artifact cache directory ('' = in-memory only)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 0, "bound the artifact cache to this many bytes on disk, evicting least-recently-used artifacts (0 = unbounded)")
		admissionLog  = flag.String("admission-log", "", "append one JSON line per submission here: hash, base hash, full/partial/miss outcome, trials from cache vs computed")
		dir           = flag.String("dir", "", "working directory for per-sweep job subdirectories (default: a temp dir, removed on exit)")
		quiet         = flag.Bool("quiet", false, "suppress service and supervisor lifecycle lines on stderr")
	)
	flag.Parse()

	workdir := *dir
	ownDir := workdir == ""
	var err error
	if ownDir {
		if workdir, err = os.MkdirTemp("", "phi-serve-*"); err != nil {
			fatal(err)
		}
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		fatal(err)
	}

	// Job names must be unique per service instance even when instances
	// share a k8s namespace (same salting scheme as phi-fleet).
	var salt [3]byte
	rand.Read(salt[:])
	launch, err := k8s.Launcher(fmt.Sprintf("%s-%x", filepath.Base(workdir), salt))
	if err != nil {
		fatal(err)
	}
	if launch == nil {
		launch = worker.Launcher()
	}
	opts, err := fleetFlags.Options(launch, workdir)
	if err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "phi-serve: "+format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	opts.Logf = logf

	sched, err := distrib.NewScheduler(opts)
	if err != nil {
		fatal(err)
	}
	var serveOpts []serve.Option
	if *cacheDir != "" {
		serveOpts = append(serveOpts, serve.WithCacheDir(*cacheDir))
	}
	if *cacheMaxBytes > 0 {
		serveOpts = append(serveOpts, serve.WithCacheMaxBytes(*cacheMaxBytes))
	}
	if *admissionLog != "" {
		serveOpts = append(serveOpts, serve.WithAdmissionLog(*admissionLog))
	}
	serveOpts = append(serveOpts, serve.WithLogf(logf))
	srv := serve.New(sched, serveOpts...)

	hs := &http.Server{
		Addr: *addr, Handler: srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		logf("shutting down")
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shctx)
	}()

	logf("listening on %s (%d shards per sweep, cache %s)", *addr, opts.Shards, cacheLabel(*cacheDir))
	err = hs.ListenAndServe()
	sched.Close()
	if ownDir {
		os.RemoveAll(workdir)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phi-serve:", err)
	os.Exit(1)
}
