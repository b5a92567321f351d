package serve

import (
	"net/http"
	"path/filepath"
	"sort"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
)

// monitorSnapshot builds the sweep's current reliability snapshot and
// reports how many shard partials backed it. A done sweep folds its
// merged result — the exact tallies the post-hoc fit uses, so the final
// snapshot is the analytical answer. A live sweep folds whatever shard
// partials have already landed atomically (tmp+rename) in the job's
// working directory, including the pre-sliced cached prefix of a
// partial-overlap job; unreadable or not-yet-complete files are skipped,
// so a mid-write directory degrades to a smaller snapshot, never an
// error. Failed and cancelled sweeps report the partials the same way —
// whatever landed is what the monitor saw.
func (s *Server) monitorSnapshot(e *entry) (monitor.Snapshot, int, error) {
	m, err := monitor.New(monitor.Config{})
	if err != nil {
		return monitor.Snapshot{}, 0, err
	}
	if e.jobStatus().State == distrib.JobDone {
		m.ObserveSweep(e.result)
		return m.Snapshot(), 0, nil
	}
	parts := 0
	if e.job != nil {
		paths, _ := filepath.Glob(filepath.Join(e.job.Dir(), "sweep-shard-*.json"))
		sort.Strings(paths)
		for _, p := range paths {
			part, err := fleet.ReadShardFile(p)
			if err != nil {
				continue
			}
			m.ObserveSweep(part)
			parts++
		}
	}
	return m.Snapshot(), parts, nil
}

// handleMonitor serves GET /v1/sweeps/{id}/monitor: the current rolling
// FIT/MTBF snapshot. 200 for queued, running, and done sweeps (a sweep
// with no landed partials yet reports zero trials); the terminal error
// states mirror /result — 410 cancelled, 502 failed — since a snapshot of
// a sweep that will never finish is an answer to a different question.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if writeEnded(w, e, e.jobStatus()) {
		return
	}
	snap, _, err := s.monitorSnapshot(e)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st := s.status(e)
	writeJSON(w, http.StatusOK, struct {
		ID       string           `json:"id"`
		State    string           `json:"state"`
		Snapshot monitor.Snapshot `json:"snapshot"`
	}{ID: e.hash, State: st.State, Snapshot: snap})
}
