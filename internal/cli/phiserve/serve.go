// Package phiserve is the phi-serve tool, the sweep service, as a cli.Func.
// It is a package of its own so that phi-bench, the shard worker every
// fan-out launches, does not link net/http and the service: linked in, they
// raised a worker's peak resident set on a whole-grid shard from ~13.6 to
// ~15.7 MB (amd64, Go 1.24).
package phiserve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
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

// Serve is phi-serve: the sweep service on -addr until ctx is cancelled.
// It logs the address it bound, so -addr host:0 names its port on stderr.
func Serve(ctx context.Context, args []string, _ io.Reader, _, stderr io.Writer) int {
	const tool = "phi-serve"
	fs := cli.Flags(tool, stderr)
	var fleetFlags cli.FleetFlags
	fleetFlags.Register(fs)
	var worker cli.WorkerFlags
	worker.Register(fs)
	var (
		addr          = fs.String("addr", ":8421", "listen address")
		cacheDir      = fs.String("cache-dir", "serve-cache", "persistent content-addressed artifact cache directory ('' = in-memory only)")
		cacheMaxBytes = fs.Int64("cache-max-bytes", 0, "bound the artifact cache to this many bytes on disk, evicting least-recently-used artifacts (0 = unbounded)")
		admissionLog  = fs.String("admission-log", "", "append one JSON line per submission here: hash, base hash, full/partial/miss outcome, trials from cache vs computed")
		dir           = fs.String("dir", "", "working directory for per-sweep job subdirectories (default: a temp dir, removed on exit)")
		quiet         = fs.Bool("quiet", false, "suppress service and supervisor lifecycle lines on stderr")
	)
	return cli.Run(fs, args, func() error {
		launch, err := worker.Launcher(tool)
		if err != nil {
			return err
		}
		workdir, ownDir, err := cli.WorkDir(*dir, tool)
		if err != nil {
			return err
		}
		if ownDir {
			defer os.RemoveAll(workdir)
		}
		opts, err := fleetFlags.Options(launch, workdir)
		if err != nil {
			return err
		}
		say := cli.Logf(stderr, tool)
		if *quiet {
			say = func(string, ...any) {}
		}
		opts.Logf = say

		sched, err := distrib.NewScheduler(opts)
		if err != nil {
			return err
		}
		defer sched.Close()
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
		serveOpts = append(serveOpts, serve.WithLogf(say))
		srv := serve.New(sched, serveOpts...)

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		// Requests run under ctx, so an interrupt also ends the /events
		// streams a graceful shutdown would otherwise wait out.
		hs := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
			BaseContext: func(net.Listener) context.Context { return ctx },
		}
		served, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			select {
			case <-served:
				return
			case <-ctx.Done():
			}
			say("shutting down")
			shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			hs.Shutdown(shctx)
		}()

		cache := *cacheDir
		if cache == "" {
			cache = "in-memory"
		}
		say("listening on %s (%d shards per sweep, cache %s)", ln.Addr(), opts.Shards, cache)
		err = hs.Serve(ln)
		close(served)
		<-stopped
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	})
}
