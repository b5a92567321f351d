package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"phirel/internal/trace"
)

// Func is one command-line tool as a function: it parses args (the
// command line without the program name) on a flag set of its own, reads
// stdin, writes stdout and stderr, and returns the exit status — 0 on
// success and after -h, 2 for a flag it cannot parse, 1 for a failure,
// reported on stderr as "<tool>: <err>". ctx cancels a running campaign,
// fan-out or service.
type Func func(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int

// Main runs fn as the process: the command line, the standard streams, a
// context that SIGINT cancels, and fn's status as the exit code. Every
// cmd/ main is this one call.
func Main(fn Func) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := fn(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Flags returns a tool's flag set: it reports parse errors and -h usage
// on stderr and leaves the exit status to Run.
func Flags(tool string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Run parses args into fs and, when they parse, runs body: the one place
// a tool's outcome becomes its exit status (see Func).
func Run(fs *flag.FlagSet, args []string, body func() error) int {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := body(); err != nil {
		fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
		return 1
	}
	return 0
}

// Logf returns a printf to w that prefixes every line with the tool name.
func Logf(w io.Writer, tool string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(w, tool+": "+format+"\n", args...)
	}
}

// progress returns a campaign Progress callback that reports every tenth
// of a benchmark's trials, and its last, on w.
func progress(w io.Writer, tool, name string) func(done, total int) {
	return func(done, total int) {
		if done == total || done%(max(total/10, 1)) == 0 {
			fmt.Fprintf(w, "%s: %s %d/%d\n", tool, name, done, total)
		}
	}
}

// recordLog is the -out JSONL log of a campaign tool (carol-fi, phi-beam):
// each benchmark's records in Seq order, benchmarks in suite order, so the
// log's bytes do not depend on -workers. Records stream from the workers
// to the file, so a log costs O(worker skew) memory, not O(N).
type recordLog[R any] struct {
	*trace.Ordered[R]
	path string
}

// openRecordLog creates the log at path for perBench records of each of
// names; pos maps a record to its benchmark and Seq. An empty path is no
// log: nil, whose methods do nothing.
func openRecordLog[R any](path string, names []string, perBench int, pos func(R) (string, int)) (*recordLog[R], error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	first := map[string]int{}
	for i, name := range names {
		first[name] = i * perBench
	}
	return &recordLog[R]{
		Ordered: trace.NewOrdered(f, func(r R) int {
			name, seq := pos(r)
			return first[name] + seq
		}),
		path: path,
	}, nil
}

// abort closes the partial log of a failed or interrupted campaign, so it
// still holds valid, sorted JSONL, says so on w when the campaign was
// interrupted, and returns err.
func (l *recordLog[R]) abort(w io.Writer, tool string, err error) error {
	if l != nil && l.Close() == nil && errors.Is(err, context.Canceled) {
		fmt.Fprintf(w, "%s: interrupted; %d records flushed to %s\n", tool, l.Count(), l.path)
	}
	return err
}

// finish closes the log of a completed campaign and reports its size on w.
func (l *recordLog[R]) finish(w io.Writer, tool string) error {
	if l == nil {
		return nil
	}
	if err := l.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: wrote %d records to %s\n", tool, l.Count(), l.path)
	return nil
}

// WorkDir resolves a fan-out tool's -dir: the named directory, made if
// missing, or with none a fresh temp directory the caller owns (own) and
// removes when it is done with it.
func WorkDir(dir, tool string) (path string, own bool, err error) {
	if dir == "" {
		path, err = os.MkdirTemp("", tool+"-*")
		return path, err == nil, err
	}
	return dir, false, os.MkdirAll(dir, 0o755)
}
