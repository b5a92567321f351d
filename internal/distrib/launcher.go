package distrib

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Launcher runs one shard worker to completion. Launch must block until
// the worker exits, leave the shard's partial artifact at task.OutPath,
// and stream the worker's stderr — structured JSONL progress events plus
// free-form diagnostics — to stderr. A non-nil error marks the attempt
// failed; the supervisor decides whether to retry. Launchers must honour
// ctx cancellation by killing the worker.
type Launcher interface {
	Launch(ctx context.Context, task Task, stderr io.Writer) error
}

// LauncherFunc adapts a function to the Launcher interface — the seam for
// in-process workers and synthetic failures in tests.
type LauncherFunc func(ctx context.Context, task Task, stderr io.Writer) error

// Launch calls f.
func (f LauncherFunc) Launch(ctx context.Context, task Task, stderr io.Writer) error {
	return f(ctx, task, stderr)
}

// WorkerArgs returns the phi-bench argument list that runs task. With
// streamIO the spec is read from stdin and the partial written to stdout
// ("-" on both flags), the one worker protocol ExecLauncher speaks; the
// file form (spec and partial at task's paths) is for callers that run a
// worker by hand. The plan rides the -plan flag (shell-safe, see
// FormatPlanArg); every task the supervisor launches has one. A hand-built
// task without a plan renders as -shard k/K, the operator's sugar for the
// balanced plan.
func WorkerArgs(task Task, streamIO bool) []string {
	spec, out := task.SpecPath, task.OutPath
	if streamIO {
		spec, out = "-", "-"
	}
	args := []string{"-sweep", "-spec", spec}
	if task.Plan != nil {
		args = append(args, "-plan", FormatPlanArg(*task.Plan))
	} else {
		args = append(args, "-shard", task.ShardArg())
	}
	args = append(args,
		"-progress-jsonl",
		"-out", out,
	)
	// Checkpoint paths ride verbatim: the spec and the partial cross
	// machines in-band, but a checkpoint is written where the worker runs,
	// and only the supervisor reads it back (on a relaunch or a steal).
	if task.CheckpointPath != "" {
		args = append(args, "-checkpoint-out", task.CheckpointPath)
		if task.CheckpointEvery > 0 {
			args = append(args, "-checkpoint-every", fmt.Sprintf("%d", task.CheckpointEvery))
		}
	}
	return args
}

// waitDelay bounds how long a launcher waits for a killed worker's pipes
// to drain before abandoning them, so a wedged grandchild holding stderr
// open cannot wedge the supervisor.
const waitDelay = 5 * time.Second

// ExecLauncher runs each shard worker as a subprocess that reads the spec
// on its stdin and writes its partial on its stdout, which lands at
// task.OutPath through a sibling temp file and a rename; stderr carries
// progress and diagnostics. With Via nil the worker runs locally; with an
// SSH or Kubectl transport the subprocess is the ssh or kubectl client and
// the worker runs on a host or in a pod, with no shared filesystem needed.
type ExecLauncher struct {
	// Command is the worker argv prefix, e.g. {"bin/phi-bench"} or {"go",
	// "run", "./cmd/phi-bench"}; the worker flags are appended. Under a
	// transport it is the command where the worker runs (e.g.
	// {"phi-bench"}, resolved by the remote PATH).
	Command []string
	// Dir, if set, is the subprocess working directory.
	Dir string
	// Env, if non-nil, replaces the inherited environment.
	Env []string
	// Via, if non-nil, is the transport the worker runs through: SSH or
	// Kubectl. Nil runs the worker locally.
	Via Transport
}

// Transport is what an ExecLauncher runs a worker through.
type Transport interface {
	// Prefix returns the argv placed before the worker command for task's
	// attempt, and where the worker runs (a host or a pod) for errors.
	Prefix(ctx context.Context, task Task) (argv []string, where string, err error)
}

// Launch runs task's worker and lands its partial. Cancelling ctx kills a
// local worker; a transport is interrupted instead, so ssh can close its
// session and kubectl can delete its --rm pod, and waitDelay later kills
// what is left. A worker that fails or is killed mid-stream leaves neither
// the partial nor its temp file behind.
func (l ExecLauncher) Launch(ctx context.Context, task Task, stderr io.Writer) error {
	if len(l.Command) == 0 {
		return errors.New("distrib: ExecLauncher has no command")
	}
	argv, where := l.Command, "this host"
	if l.Via != nil {
		prefix, host, err := l.Via.Prefix(ctx, task)
		if err != nil {
			return err
		}
		argv, where = append(prefix, l.Command...), host
	}
	spec, err := os.Open(task.SpecPath)
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	defer spec.Close()
	// Copy the artifact into a sibling temp file as it arrives and rename
	// on success, so a stream cut mid-transfer never leaves a
	// plausible-looking partial behind for the validator to half-trust.
	tmp := task.OutPath + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	cmd := exec.CommandContext(ctx, argv[0], append(argv[1:len(argv):len(argv)], WorkerArgs(task, true)...)...)
	if l.Via != nil {
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	}
	cmd.Dir = l.Dir
	cmd.Env = l.Env
	cmd.Stdin = spec
	cmd.Stdout = out
	cmd.Stderr = stderr
	cmd.WaitDelay = waitDelay
	runErr := cmd.Run()
	if closeErr := out.Close(); runErr == nil {
		runErr = closeErr
	}
	if runErr != nil {
		os.Remove(tmp)
		// A worker killed on ctx expiry surfaces as "signal: killed";
		// report the ctx error instead so timeouts read as timeouts.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("distrib: worker %s on %s (shard %s): %w", l.Command[0], where, task.ShardArg(), runErr)
	}
	if err := os.Rename(tmp, task.OutPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("distrib: %w", err)
	}
	return nil
}

// SSH runs workers on remote hosts over ssh. Shards round-robin over
// Hosts, rotated by attempt number, so a retry lands on a different host
// and the retry budget routes around a dead machine instead of burning out
// against it.
type SSH struct {
	// Hosts are ssh destinations (host or user@host).
	Hosts []string
	// Command is the ssh argv prefix (default {"ssh", "-o", "BatchMode=yes"}).
	Command []string
}

// host picks task's destination: round-robin by shard, rotated by attempt.
func (s SSH) host(task Task) string {
	return s.Hosts[(task.Shard+task.Attempt)%len(s.Hosts)]
}

// Prefix returns the ssh argv ending in task's host.
func (s SSH) Prefix(_ context.Context, task Task) ([]string, string, error) {
	if len(s.Hosts) == 0 {
		return nil, "", errors.New("distrib: ssh transport has no hosts")
	}
	argv := s.Command
	if len(argv) == 0 {
		argv = []string{"ssh", "-o", "BatchMode=yes"}
	}
	host := s.host(task)
	return append(append([]string(nil), argv...), host), host, nil
}

// Kubectl runs each worker attempt in a fresh pod. Run without a TTY,
// `kubectl run -i --rm --restart=Never` hands the container its stdin and
// keeps its stdout and stderr apart, which is all ExecLauncher needs;
// --quiet keeps kubectl's own messages off stdout. The pod is named per
// attempt, so a retry never collides with what a failed attempt left
// behind, and the attempt's deadline rides into the pod as
// activeDeadlineSeconds, so the cluster kills a hung worker even if this
// supervisor dies before it can.
type Kubectl struct {
	// Command is the kubectl argv prefix (default {"kubectl"}) — the place
	// for {"kubectl", "--context", "lab"} or a full path.
	Command []string
	// Namespace the pods run in (default "default").
	Namespace string
	// Image is the container image holding phi-bench (required).
	Image string
	// RunName prefixes the pod names (default "phirel"); concurrent
	// fan-outs sharing a namespace need distinct RunNames.
	RunName string
}

// Prefix returns the kubectl run argv for task's attempt, ending in "--".
func (k Kubectl) Prefix(ctx context.Context, task Task) ([]string, string, error) {
	if k.Image == "" {
		return nil, "", errors.New("distrib: kubectl transport has no image")
	}
	argv := k.Command
	if len(argv) == 0 {
		argv = []string{"kubectl"}
	}
	ns := k.Namespace
	if ns == "" {
		ns = "default"
	}
	pod := podName(k.RunName, task)
	argv = append(append([]string(nil), argv...), "run", "-i", "--rm", "--quiet", "--restart=Never",
		"--namespace", ns, "--image", k.Image)
	if dl, ok := ctx.Deadline(); ok {
		if secs := int(math.Ceil(time.Until(dl).Seconds())); secs > 0 {
			argv = append(argv, "--overrides",
				fmt.Sprintf(`{"apiVersion":"v1","spec":{"activeDeadlineSeconds":%d}}`, secs))
		}
	}
	return append(argv, pod, "--command", "--"), pod, nil
}

// podName builds the DNS-1123 pod name for one task attempt. The attempt
// number is part of the name, so a retry never collides with a pod the
// failed attempt left behind.
func podName(run string, task Task) string {
	suffix := fmt.Sprintf("-shard-%d-of-%d-r%d", task.Shard+1, task.Count, task.Attempt)
	return sanitizeDNS1123(run, 63-len(suffix)) + suffix
}

// sanitizeDNS1123 coerces s into a DNS-1123 label fragment of at most max
// chars: lowercase alphanumerics and dashes, no leading/trailing dash,
// "phirel" when nothing survives. Over-long names keep their TAIL — the
// uniqueness callers mix in (temp-dir randomness, pid) lives at the end,
// and truncating it away would let concurrent fan-outs collide.
func sanitizeDNS1123(s string, max int) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	out := b.String()
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	out = strings.Trim(out, "-")
	if out == "" {
		return "phirel"
	}
	return out
}
