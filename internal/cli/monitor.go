package cli

import (
	"flag"
	"fmt"
	"os"
	"sync"

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
	fs.IntVar(&f.Every, "monitor-every", 1000, prefix+"records between rolling snapshot lines (0 = final snapshot only)")
}

// MonitorSink is an open -monitor-jsonl stream: a Monitor whose periodic
// snapshots append to the JSONL file, plus the final-snapshot/flush
// lifecycle. Snapshot writes are serialised internally, so the Monitor's
// observers can feed it from concurrent campaign workers.
type MonitorSink struct {
	// Monitor receives the campaign records: wire its ObserveInjection or
	// ObserveBeam method into the campaign's Observe hook.
	Monitor *monitor.Monitor

	mu    sync.Mutex
	file  *os.File
	w     *trace.Writer
	lines int
	werr  error
}

// Open builds the sink the flags describe, or (nil, nil) when
// -monitor-jsonl was not passed — the caller falls through to running
// unmonitored.
func (f *MonitorFlags) Open() (*MonitorSink, error) {
	if f.Out == "" {
		return nil, nil
	}
	file, err := os.Create(f.Out)
	if err != nil {
		return nil, err
	}
	s := &MonitorSink{file: file, w: trace.NewWriter(file)}
	m, err := monitor.New(monitor.Config{
		Device:        f.Device,
		TempK:         f.TempK,
		SnapshotEvery: f.Every,
		OnSnapshot:    s.write,
	})
	if err != nil {
		file.Close()
		os.Remove(f.Out)
		return nil, err
	}
	s.Monitor = m
	return s, nil
}

func (s *MonitorSink) write(snap monitor.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Write(snap); err != nil && s.werr == nil {
		s.werr = err
	}
	s.lines++
}

// Mark appends a snapshot of the monitor's current state, regardless of
// the -monitor-every cadence — the campaign CLIs call it at natural
// boundaries, e.g. after each benchmark of a suite.
func (s *MonitorSink) Mark() { s.write(s.Monitor.Snapshot()) }

// Lines reports how many snapshot lines have been written.
func (s *MonitorSink) Lines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}

// Close appends the final snapshot — on a completed fixed-seed campaign,
// the exact post-hoc analysis fit — then flushes and closes the file. Call
// it after the campaign has fully drained into the Monitor. The first
// write error anywhere in the stream's lifetime is returned.
func (s *MonitorSink) Close() error {
	s.write(s.Monitor.Snapshot())
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.werr == nil {
		s.werr = err
	}
	if err := s.file.Close(); err != nil && s.werr == nil {
		s.werr = err
	}
	if s.werr != nil {
		return fmt.Errorf("cli: monitor stream %s: %w", s.file.Name(), s.werr)
	}
	return nil
}
