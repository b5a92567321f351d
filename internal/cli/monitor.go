package cli

import (
	"flag"
	"fmt"
	"os"

	"phirel/internal/monitor"
	"phirel/internal/phi"
	"phirel/internal/trace"
)

// MonitorFlags is the resident-monitor flag surface cmd/phi-bench and
// cmd/phi-beam share: where to stream rolling FIT/MTBF snapshots, under
// which device model and operating temperature, and how often. Like
// SweepFlags, it lives here so the two campaign CLIs expose one flag
// vocabulary with one tested wiring into internal/monitor.
type MonitorFlags struct {
	Out    string
	Device string
	TempK  float64
	Every  int
}

// Register installs the monitor flags on fs. prefix is prepended to the
// help text, mirroring SweepFlags.Register.
func (f *MonitorFlags) Register(fs *flag.FlagSet, prefix string) {
	fs.StringVar(&f.Out, "monitor-jsonl", "", prefix+"stream rolling FIT/MTBF snapshots to this JSONL file (one internal/monitor snapshot per line, final line = exact post-hoc estimate)")
	fs.StringVar(&f.Device, "monitor-device", phi.DefaultDevice, prefix+"device model backing the monitor's raw fault rates")
	fs.Float64Var(&f.TempK, "monitor-temp", 0, prefix+"operating junction temperature in kelvin for the Arrhenius acceleration factor (0 = device reference temperature)")
	fs.IntVar(&f.Every, "monitor-every", 1000, prefix+"records between rolling snapshot lines (0 = no rolling lines: phi-beam still writes one at each benchmark boundary, and the final line is always written)")
}

// MonitorSink is an open -monitor-jsonl stream: a Monitor whose periodic
// snapshots append to the JSONL File, plus the final-snapshot/close
// lifecycle; Count is its line count. The campaign tools feed the Monitor
// serially, in record order (phi-beam from its record reorder, phi-bench
// through the fleet hooks), so the stream's bytes do not depend on
// -workers.
type MonitorSink struct {
	*monitor.Monitor
	*trace.File
	path string
}

// Open builds the sink the flags describe, or (nil, nil) when
// -monitor-jsonl was not passed — the caller falls through to running
// unmonitored.
func (f *MonitorFlags) Open() (*MonitorSink, error) {
	if f.Out == "" {
		return nil, nil
	}
	file, err := trace.Open(f.Out, os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	m, err := monitor.New(monitor.Config{
		Device:        f.Device,
		TempK:         f.TempK,
		SnapshotEvery: f.Every,
		OnSnapshot:    func(snap monitor.Snapshot) { file.Write(snap) },
	})
	if err != nil {
		file.Close()
		os.Remove(f.Out)
		return nil, err
	}
	return &MonitorSink{Monitor: m, File: file, path: f.Out}, nil
}

// Mark appends a snapshot of the monitor's current state, regardless of
// the -monitor-every cadence — the campaign CLIs call it at natural
// boundaries, e.g. after each benchmark of a suite.
func (s *MonitorSink) Mark() { s.Write(s.Snapshot()) }

// Close appends the final snapshot — on a completed fixed-seed campaign,
// the exact post-hoc analysis fit — then flushes and closes the file. Call
// it after the campaign has fully drained into the Monitor. The first
// write error anywhere in the stream's lifetime is returned.
func (s *MonitorSink) Close() error {
	s.Mark()
	if err := s.File.Close(); err != nil {
		return fmt.Errorf("cli: monitor stream %s: %w", s.path, err)
	}
	return nil
}
