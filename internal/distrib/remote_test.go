package distrib

import (
	"context"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The exec launcher's fan-out behaviours through a transport — merges,
// retries, kills, revalidation, tails — run in the conformance suite's SSH
// and Kubectl legs. This file locks what the table does not see: the argv each
// transport builds per attempt.

// TestSSHHostRotation: retries must not be pinned to a possibly dead host
// — the attempt number rotates the round-robin so the retry budget can
// route around a host-level failure.
func TestSSHHostRotation(t *testing.T) {
	s := SSH{Hosts: []string{"a", "b", "c"}}
	for _, tc := range []struct {
		shard, attempt int
		want           string
	}{
		{1, 0, "b"},
		{1, 1, "c"}, // rotated off the failing host
		{4, 2, "a"},
	} {
		argv, host, err := s.Prefix(context.Background(), Task{Shard: tc.shard, Attempt: tc.attempt})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"ssh", "-o", "BatchMode=yes", tc.want}
		if host != tc.want || !reflect.DeepEqual(argv, want) {
			t.Fatalf("shard %d attempt %d: %v on %q, want %v", tc.shard, tc.attempt, argv, host, want)
		}
	}
}

// TestKubectlArgv locks the kubectl run line: an attached, self-deleting,
// never-restarted pod named per attempt, the attempt deadline mirrored
// into activeDeadlineSeconds only when the attempt has one, and the
// worker command after "--".
func TestKubectlArgv(t *testing.T) {
	k := Kubectl{
		Command:   []string{"kubectl", "--context", "lab"},
		Namespace: "phirel",
		Image:     "ghcr.io/phirel/phi-bench:1",
		RunName:   "fleet-7",
	}
	base := []string{"kubectl", "--context", "lab", "run", "-i", "--rm", "--quiet", "--restart=Never",
		"--namespace", "phirel", "--image", "ghcr.io/phirel/phi-bench:1"}
	for _, tc := range []struct {
		name     string
		attempt  int
		deadline time.Duration
		override string
		pod      string
	}{
		{"NoDeadline", 0, 0, "", "fleet-7-shard-2-of-3-r0"},
		{"Retry", 1, 0, "", "fleet-7-shard-2-of-3-r1"},
		{"Deadline", 2, 90 * time.Second, `{"apiVersion":"v1","spec":{"activeDeadlineSeconds":90}}`, "fleet-7-shard-2-of-3-r2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if tc.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.deadline)
				defer cancel()
			}
			argv, pod, err := k.Prefix(ctx, Task{Shard: 1, Count: 3, Attempt: tc.attempt})
			if err != nil {
				t.Fatal(err)
			}
			want := append([]string(nil), base...)
			if tc.override != "" {
				want = append(want, "--overrides", tc.override)
			}
			want = append(want, tc.pod, "--command", "--")
			if pod != tc.pod || !reflect.DeepEqual(argv, want) {
				t.Fatalf("argv\n%q on %q, want\n%q", argv, pod, want)
			}
		})
	}
	// The defaults: plain kubectl, the default namespace, "phirel" pods.
	argv, pod, err := Kubectl{Image: "img"}.Prefix(context.Background(), Task{Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if argv[0] != "kubectl" || pod != "phirel-shard-1-of-1-r0" || !strings.Contains(strings.Join(argv, " "), "--namespace default") {
		t.Fatalf("defaults: %q on %q", argv, pod)
	}
}

// TestRemoteLauncherValidation: an exec launcher with no command or an
// incoherent transport fails the attempt before anything is started.
func TestRemoteLauncherValidation(t *testing.T) {
	task := Task{Shard: 0, Count: 1, SpecPath: "/nonexistent", OutPath: "/nonexistent"}
	bin := []string{"phi-bench"}
	for _, tc := range []struct {
		l    ExecLauncher
		want string
	}{
		{ExecLauncher{Via: SSH{Hosts: []string{"a"}}}, "no command"},
		{ExecLauncher{Command: bin, Via: SSH{}}, "no hosts"},
		{ExecLauncher{Command: bin, Via: Kubectl{}}, "no image"},
		{ExecLauncher{Command: bin, Via: SSH{Hosts: []string{"a"}}}, "nonexistent"},
	} {
		if err := tc.l.Launch(context.Background(), task, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: %v, want an error naming %q", tc.l, err, tc.want)
		}
	}
}

func TestPodNamePerAttemptAndSanitization(t *testing.T) {
	task := Task{Shard: 1, Count: 3}
	a0 := podName("phi-fleet-123", task)
	task.Attempt = 1
	a1 := podName("phi-fleet-123", task)
	if a0 == a1 {
		t.Fatalf("attempts share the pod name %q; retries would collide with failed-attempt remains", a0)
	}
	if a0 != "phi-fleet-123-shard-2-of-3-r0" {
		t.Fatalf("pod name %q off-convention", a0)
	}
	// The pod name must fit DNS-1123's 63-char label limit even for long
	// run names, and truncation must keep the TAIL — that is where the
	// caller's uniqueness (pid, temp randomness) lives, so a long shared
	// basename must not erase it.
	long := podName(strings.Repeat("nightly-sweep-artifacts-", 4)+"p4242", Task{Shard: 0, Count: 10})
	if len(long) > 63 {
		t.Fatalf("pod name %q exceeds the DNS-1123 label limit", long)
	}
	if !strings.Contains(long, "p4242") {
		t.Fatalf("truncation dropped the unique tail: %q", long)
	}
	for _, tc := range []struct{ in, want string }{
		{"Phi Fleet 99*", "phi-fleet-99"},
		{"--", "phirel"},
		{"", "phirel"},
		{strings.Repeat("x", 100), strings.Repeat("x", 30)},
	} {
		if got := sanitizeDNS1123(tc.in, 30); got != tc.want {
			t.Fatalf("sanitizeDNS1123(%q, 30) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
