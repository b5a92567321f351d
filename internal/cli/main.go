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

// records is a campaign tool's record path (carol-fi, phi-beam): one
// reorder, keyed by (benchmark in suite order, Seq), that hands each record
// to the -out JSONL log and to also (phi-beam's monitor), so neither
// depends on -workers. Records stream through it, so the path costs
// O(worker skew) memory, not O(N).
type records[R any] struct {
	*trace.Ordered[R]
	log  *trace.File // nil without -out
	path string
}

// openRecords creates the record path, with the log at path (none when
// path is empty). With neither a log nor also there is nothing to feed:
// nil, whose methods do nothing.
func openRecords[R any](path string, also func(R)) (l *records[R], err error) {
	if path == "" && also == nil {
		return nil, nil
	}
	l = &records[R]{path: path}
	if path != "" {
		if l.log, err = trace.Open(path, os.O_TRUNC); err != nil {
			return nil, err
		}
	}
	l.Ordered = trace.NewOrdered(func(r R) {
		if l.log != nil {
			l.log.Write(r)
		}
		if also != nil {
			also(r)
		}
	})
	return l, nil
}

// observer returns the Observe hook of the campaign whose records start at
// position first of the suite, seq naming a record's Seq.
func (l *records[R]) observer(first int, seq func(R) int) func(R) {
	if l == nil {
		return nil
	}
	return func(r R) { l.Put(first+seq(r), r) }
}

// close ends the record path of a campaign that ended with cause (nil when
// it completed): the reorder releases what it still holds, sorted, so a
// partial log stays valid and sorted, and the log is closed and its size
// reported on w. It returns cause, or else the log's error.
func (l *records[R]) close(w io.Writer, tool string, cause error) error {
	if l == nil {
		return cause
	}
	l.Ordered.Close()
	if l.log == nil {
		return cause
	}
	err := l.log.Close()
	switch {
	case cause == nil && err == nil:
		fmt.Fprintf(w, "%s: wrote %d records to %s\n", tool, l.log.Count(), l.path)
	case err == nil && errors.Is(cause, context.Canceled):
		fmt.Fprintf(w, "%s: interrupted; %d records flushed to %s\n", tool, l.log.Count(), l.path)
	}
	if cause != nil {
		return cause
	}
	return err
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
