package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"
)

// Server is the local Backend of the job API: jobs run on this process's
// worker pool.
var _ Backend = (*Server)(nil)

// Handler builds the daemon's HTTP surface: the shared job API plus the
// worker-only session routes.
func (s *Server) Handler() http.Handler {
	return (&API{
		Backend:  s,
		Spool:    s.spool,
		Registry: s.reg,
		Requests: s.hHTTP,
		Log:      s.log,
		Started:  s.startedAt,
		Role:     "worker",
	}).Handler()
}

// Routes registers the ECO session API:
//
//	POST   /api/v1/sessions               open an ECO session (202; cold place runs async)
//	GET    /api/v1/sessions               list session summaries
//	GET    /api/v1/sessions/{id}          session manifest
//	POST   /api/v1/sessions/{id}/deltas   apply one ECO delta (synchronous warm re-place)
//	GET    /api/v1/sessions/{id}/events   SSE progress stream (replay + live)
//	DELETE /api/v1/sessions/{id}          close the session
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("GET /api/v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleSessionStatus)
	mux.HandleFunc("POST /api/v1/sessions/{id}/deltas", s.handleSessionDelta)
	mux.HandleFunc("GET /api/v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.handleSessionClose)
}

// Admit spools the job and pushes it onto the local admission queue; a
// full queue answers 429 with the queue's Retry-After estimate.
func (s *Server) Admit(r *http.Request, m *Manifest) error {
	if m.Spec.Distributed {
		return &HTTPError{Status: http.StatusBadRequest,
			Err: errors.New("distributed exploration requires a fleet coordinator; this is a worker daemon")}
	}
	if err := s.spool.CreateJob(m); err != nil {
		return fmt.Errorf("spool job: %w", err)
	}
	s.ensureJob(m.ID)
	if err := s.queue.TryPush(m.ID); err != nil {
		os.RemoveAll(s.spool.JobDir(m.ID))
		s.mu.Lock()
		delete(s.jobs, m.ID)
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			s.reg.Counter("serve.jobs_rejected").Inc()
			retry := s.queue.RetryAfter(s.cfg.Workers)
			return &HTTPError{Status: http.StatusTooManyRequests, RetryAfter: retry,
				Err: fmt.Errorf("queue full (%d/%d); retry in %s", s.queue.Len(), s.queue.Cap(), retry)}
		}
		return &HTTPError{Status: http.StatusServiceUnavailable, Err: err}
	}
	s.reg.Counter("serve.jobs_submitted").Inc()
	s.reg.Gauge("serve.queue_depth").Set(float64(s.queue.Len()))
	s.log.InfoContext(r.Context(), "job queued", "job", m.ID, "kind", m.Spec.Kind)
	return nil
}

// Cancel cancels queued (or parked) jobs durably in the spool; running
// jobs cancel through their context and the worker records the state.
func (s *Server) Cancel(m *Manifest) (*Manifest, error) {
	if m.State == StateQueued || m.State == StateParked {
		now := time.Now()
		updated, err := s.spool.Update(m.ID, func(mm *Manifest) error {
			if mm.State == StateRunning { // raced with a worker claim
				return nil
			}
			mm.State = StateCanceled
			mm.Error = errJobCanceled.Error()
			mm.FinishedAt = &now
			return nil
		})
		if err != nil {
			return nil, err
		}
		if updated.State == StateCanceled {
			s.reg.Counter("serve.jobs_canceled").Inc()
			if a, ok := s.jobRuntime(m.ID); ok {
				a.hub.Publish(Event{Type: "state", State: StateCanceled, Error: updated.Error})
				a.hub.Close()
			}
			// The job never reached a worker, so no runJob call will retire
			// it; enroll the hub in retention here or it leaks forever.
			s.retireJob(m.ID)
			return updated, nil
		}
	}
	if a, ok := s.jobRuntime(m.ID); ok {
		s.mu.Lock()
		cancel := a.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel(errJobCanceled)
		}
	}
	return nil, nil
}

// Events streams the job's hub (retained replay, then live events); a job
// with no hub this boot, or whose retention expired, has no live source.
func (s *Server) Events(ctx context.Context, m *Manifest, out *EventStream) bool {
	a, ok := s.jobRuntime(m.ID)
	if !ok {
		return false
	}
	a.hub.Stream(ctx, out, s.hSSE)
	return true
}

// LiveArtifact reports false: a worker's artifacts live only in its spool.
func (s *Server) LiveArtifact(http.ResponseWriter, *http.Request, *Manifest, string) bool {
	return false
}

// Readiness adds queue saturation and a burning SLO to draining, and
// carries the live SLO evaluation.
func (s *Server) Readiness() ([]string, map[string]any) {
	var reasons []string
	if s.queue.Len() >= s.queue.Cap() {
		reasons = append(reasons, "queue saturated")
	}
	slos := s.slo.Eval()
	if !s.slo.Healthy() {
		reasons = append(reasons, "slo burning")
	}
	return reasons, map[string]any{"slo": slos}
}

// HealthFields reports the pool's load.
func (s *Server) HealthFields() map[string]any {
	return map[string]any{
		"queue_depth": s.queue.Len(),
		"queue_cap":   s.queue.Cap(),
		"workers":     s.cfg.Workers,
		"active_jobs": s.activeCount(),
	}
}

// OpsFields reports the pool's load, the session census, and the SLOs.
func (s *Server) OpsFields() map[string]any {
	s.mu.Lock()
	sessions := len(s.sessions)
	warm := 0
	for _, rt := range s.sessions {
		rt.mu.Lock()
		if rt.sess != nil {
			warm++
		}
		rt.mu.Unlock()
	}
	s.mu.Unlock()
	f := s.HealthFields()
	f["sessions"] = map[string]int{"tracked": sessions, "warm": warm}
	f["slo"] = s.slo.Eval()
	f["slo_healthy"] = s.slo.Healthy()
	return f
}
