package cli

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"phirel/internal/core"
	"phirel/internal/monitor"
	"phirel/internal/trace"
)

func TestMonitorFlagsOffByDefault(t *testing.T) {
	var f MonitorFlags
	sink, err := f.Open()
	if err != nil || sink != nil {
		t.Fatalf("Open without -monitor-jsonl: (%v, %v), want (nil, nil)", sink, err)
	}
}

func TestMonitorFlagsUnknownDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mon.jsonl")
	f := MonitorFlags{Out: path, Device: "KNC9999X"}
	if _, err := f.Open(); err == nil {
		t.Fatal("unknown monitor device accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed Open left the output file behind")
	}
}

// TestMonitorSinkStream drives the full -monitor-jsonl lifecycle: rolling
// lines at the -monitor-every cadence, a Mark at a campaign boundary, and
// the final line Close appends — which must equal the monitor's own final
// snapshot exactly.
func TestMonitorSinkStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mon.jsonl")
	f := MonitorFlags{Out: path, Every: 2}
	sink, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		out := "Masked"
		if i%2 == 0 {
			out = "SDC"
		}
		sink.Monitor.ObserveInjection(core.InjectionRecord{
			Benchmark: "DGEMM", Model: "Single", Region: "matrix", Outcome: out,
		})
	}
	sink.Mark()
	want := sink.Monitor.Snapshot()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	snaps, err := trace.Read[monitor.Snapshot](file)
	if err != nil {
		t.Fatal(err)
	}
	// 5 records at every-2 → 2 rolling lines, plus the Mark, plus Close.
	if len(snaps) != 4 || sink.Count() != 4 {
		t.Fatalf("stream has %d lines (sink counted %d), want 4", len(snaps), sink.Count())
	}
	if got := []int{snaps[0].Trials, snaps[1].Trials}; got[0] != 2 || got[1] != 4 {
		t.Fatalf("rolling snapshot trial counts %v, want [2 4]", got)
	}
	final := snaps[len(snaps)-1]
	if !reflect.DeepEqual(final, want) {
		t.Fatalf("final line %+v differs from the monitor's final snapshot %+v", final, want)
	}
	if final.Schema != monitor.SchemaV1 || final.Trials != 5 {
		t.Fatalf("final snapshot schema %q trials %d", final.Schema, final.Trials)
	}
}
