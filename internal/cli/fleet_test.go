package cli

import (
	"flag"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"phirel/internal/distrib"
)

func parseFleet(t *testing.T, args ...string) (*FleetFlags, *WorkerFlags) {
	t.Helper()
	var f FleetFlags
	var w WorkerFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	w.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f, &w
}

// TestFleetFlagsDefaultsMatchScheduler: the flag defaults ARE
// distrib.Defaults — phi-fleet, phi-serve, and the scheduler cannot
// disagree on the baseline fan-out config.
func TestFleetFlagsDefaultsMatchScheduler(t *testing.T) {
	f, _ := parseFleet(t)
	d := distrib.Defaults()
	if f.Shards != d.Shards || f.Timeout != d.Timeout || f.Retries != d.Retries ||
		f.Backoff != d.Backoff || f.MaxConcurrent != d.MaxConcurrent {
		t.Fatalf("flag defaults %+v diverge from distrib.Defaults %+v", f, d)
	}
}

func TestFleetFlagsOptionsAssembly(t *testing.T) {
	f, w := parseFleet(t, "-shards", "5", "-timeout", "90s", "-retries", "2",
		"-backoff", "3s", "-max-concurrent", "4", "-worker-cmd", "bin/phi-bench -quiet")
	launch, err := w.Launcher("run")
	if err != nil {
		t.Fatal(err)
	}
	opts, err := f.Options(launch, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Shards != 5 || opts.Retries != 2 || opts.MaxConcurrent != 4 {
		t.Fatalf("options wired as %+v", opts)
	}
	exec, ok := opts.Launcher.(distrib.ExecLauncher)
	if !ok || !reflect.DeepEqual(exec.Command, []string{"bin/phi-bench", "-quiet"}) {
		t.Fatalf("launcher %+v", opts.Launcher)
	}

	// Validation runs inside assembly: an incoherent flag set never
	// reaches a scheduler.
	bad, _ := parseFleet(t, "-shards", "0")
	if _, err := bad.Options(launch, t.TempDir()); err == nil {
		t.Fatal("shards=0 assembled into Options without error")
	}
	if _, err := f.Options(nil, t.TempDir()); err == nil {
		t.Fatal("nil launcher assembled into Options without error")
	}
}

// TestWorkerFlagsLauncherWiring: -ssh and -k8s each build the one exec
// launcher with their transport, -remote-bin as its command and the
// transport's knobs.
func TestWorkerFlagsLauncherWiring(t *testing.T) {
	launcher := func(args ...string) distrib.ExecLauncher {
		t.Helper()
		_, w := parseFleet(t, args...)
		l, err := w.Launcher("fleet-7")
		if err != nil {
			t.Fatal(err)
		}
		exec, ok := l.(distrib.ExecLauncher)
		if !ok {
			t.Fatalf("launcher is %T, want distrib.ExecLauncher", l)
		}
		return exec
	}
	ssh := launcher("-ssh", "a, b", "-remote-bin", "/opt/phi-bench")
	want := distrib.ExecLauncher{Command: []string{"/opt/phi-bench"}, Via: distrib.SSH{Hosts: []string{"a", "b"}}}
	if !reflect.DeepEqual(ssh, want) {
		t.Fatalf("ssh launcher wired as %+v, want %+v", ssh, want)
	}

	k8s := launcher("-k8s", "-k8s-image", "ghcr.io/x/phirel:1", "-k8s-namespace", "phirel",
		"-remote-bin", "/opt/phi-bench", "-kubectl", "kubectl --context lab")
	kubectl, ok := k8s.Via.(distrib.Kubectl)
	if !ok {
		t.Fatalf("-k8s transport is %T, want distrib.Kubectl", k8s.Via)
	}
	// The run name is salted per launcher, so concurrent fan-outs from
	// equally named directories still get distinct pod names.
	if !regexp.MustCompile(`^fleet-7-[0-9a-f]{6}$`).MatchString(kubectl.RunName) {
		t.Fatalf("pod run name %q, want fleet-7 plus a 6-hex salt", kubectl.RunName)
	}
	kubectl.RunName = ""
	wantK := distrib.Kubectl{Command: []string{"kubectl", "--context", "lab"}, Namespace: "phirel", Image: "ghcr.io/x/phirel:1"}
	if !reflect.DeepEqual(kubectl, wantK) || !reflect.DeepEqual(k8s.Command, []string{"/opt/phi-bench"}) {
		t.Fatalf("kubectl launcher wired as %+v (command %q), want %+v", kubectl, k8s.Command, wantK)
	}

	// No transport flag: a local subprocess.
	_, w := parseFleet(t)
	if l, err := w.Launcher("run"); err != nil {
		t.Fatal(err)
	} else if exec, ok := l.(distrib.ExecLauncher); !ok || exec.Via != nil {
		t.Fatalf("default launcher is %#v, want a local distrib.ExecLauncher", l)
	}
}

// TestWorkerFlagsRejectIncoherentTransports: a flag set naming two
// transports, an empty -ssh host, or -k8s without an image is an error,
// not a silent choice.
func TestWorkerFlagsRejectIncoherentTransports(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k8s", "-k8s-image", "img", "-ssh", "a"}, "at most one"},
		{[]string{"-ssh", "a,b", "-worker-cmd", "bin/phi-bench"}, "at most one"},
		{[]string{"-k8s", "-k8s-image", "img", "-worker-cmd", "bin/phi-bench"}, "at most one"},
		{[]string{"-ssh", "a,,b"}, "empty host"},
		{[]string{"-ssh", "a, "}, "empty host"},
		{[]string{"-k8s"}, "-k8s-image"},
	} {
		_, w := parseFleet(t, tc.args...)
		if l, err := w.Launcher("run"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%q: launcher %v, error %v; want an error naming %q", tc.args, l, err, tc.want)
		}
	}
}

// TestOpenInput: the "-" convention reads stdin under the name "stdin"
// with a no-op Close; files open (and fail to open) under their own name.
func TestOpenInput(t *testing.T) {
	r, name, err := OpenInput("-", strings.NewReader("piped"))
	if err != nil || name != "stdin" {
		t.Fatalf("stdin form: %q, %v", name, err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "piped" {
		t.Fatalf("stdin content %q", data)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("stdin Close: %v", err)
	}

	_, name, err = OpenInput("/nonexistent/input.jsonl", nil)
	if err == nil {
		t.Fatal("missing file opened")
	}
	if name != "/nonexistent/input.jsonl" {
		t.Fatalf("error name %q, want the path", name)
	}
}
