package serve

import (
	"net/http"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
)

// monitorSnapshot builds the sweep's current reliability snapshot and
// reports how many partials backed it. A done sweep folds its merged
// artifact, decoded from the entry's bytes — the exact tallies the
// post-hoc fit uses, so the final snapshot is the analytical answer. A
// live sweep folds the partials its job has validated so far, a
// partial-overlap job's cached prefix included: values the job already
// holds, so nothing is read from disk or decoded again.
func (s *Server) monitorSnapshot(e *entry) (monitor.Snapshot, int, error) {
	m, err := monitor.New(monitor.Config{})
	if err != nil {
		return monitor.Snapshot{}, 0, err
	}
	var parts []*fleet.SweepResult
	live := false
	if e.job != nil {
		parts, live = e.job.Partials()
	}
	if !live && e.jobStatus().State == distrib.JobDone {
		res, err := e.decode()
		if err != nil {
			return monitor.Snapshot{}, 0, err
		}
		m.ObserveSweep(res)
		return m.Snapshot(), 0, nil
	}
	for _, p := range parts {
		m.ObserveSweep(p)
	}
	return m.Snapshot(), len(parts), nil
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
