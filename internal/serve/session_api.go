package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"puffer/internal/eco"
	"puffer/pipeline"
)

// maxDeltaBytes bounds a posted delta document.
const maxDeltaBytes = 16 << 20

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteError(w, errDraining(workerRole, "not opening sessions"))
		return
	}
	spec, err := DecodeSessionSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		WriteError(w, &HTTPError{Status: http.StatusBadRequest, Err: err})
		return
	}
	m := &SessionManifest{
		ID:       newJobID(),
		Spec:     spec,
		State:    SessionOpening,
		OpenedAt: time.Now().UTC(),
	}
	if err := sessionRecords.create(s.spool, m, spec.Bookshelf); err != nil {
		WriteError(w, fmt.Errorf("spool session: %w", err))
		return
	}
	rt := s.sessions.ensure(m.ID)
	rt.run.Lock() // released by openSession
	s.wg.Add(1)
	go s.openSession(m, rt)
	s.reg.Counter("serve.sessions_submitted").Inc()
	s.log.InfoContext(r.Context(), "session opening", "session", m.ID, "design", spec.designName())
	WriteJSON(w, http.StatusAccepted, m)
}

// sessionSummary is one row of the session list endpoint.
type sessionSummary struct {
	ID          string       `json:"id"`
	Design      string       `json:"design"`
	State       SessionState `json:"state"`
	Deltas      int          `json:"deltas"`
	LastHPWL    float64      `json:"last_hpwl,omitempty"`
	Warm        bool         `json:"warm"`
	OpenedAt    time.Time    `json:"opened_at"`
	LastDeltaAt *time.Time   `json:"last_delta_at,omitempty"`
	Error       string       `json:"error,omitempty"`
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	ms, err := sessionRecords.list(s.spool)
	if err != nil {
		WriteError(w, fmt.Errorf("list sessions: %w", err))
		return
	}
	out := make([]sessionSummary, 0, len(ms))
	for _, m := range ms {
		row := sessionSummary{
			ID: m.ID, Design: m.Spec.designName(), State: m.State,
			Deltas: m.Deltas, LastHPWL: m.LastHPWL,
			OpenedAt: m.OpenedAt, LastDeltaAt: m.LastDeltaAt, Error: m.Error,
		}
		if rt, ok := s.sessions.lookup(m.ID); ok {
			row.Warm = rt.warm()
		}
		out = append(out, row)
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if m := loadRecord(w, r, s.spool, sessionRecords); m != nil {
		WriteJSON(w, http.StatusOK, m)
	}
}

// deltaResponse is the body of a successful delta application.
type deltaResponse struct {
	ID         string  `json:"id"`
	Deltas     int     `json:"deltas"`
	HPWL       float64 `json:"hpwl"`
	GPIters    int     `json:"gp_iters"`
	GPOverflow float64 `json:"gp_overflow"`
	RuntimeMS  float64 `json:"runtime_ms"`
	Rehydrated bool    `json:"rehydrated,omitempty"`
}

func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteError(w, errDraining(workerRole, "not accepting deltas"))
		return
	}
	m := loadRecord(w, r, s.spool, sessionRecords)
	if m == nil {
		return
	}
	ack, err := s.applyDelta(w, r, m)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ack)
}

// applyDelta applies one ECO delta synchronously: the warm re-place is the
// fast path (an order of magnitude under the cold wall), so the response
// carries the new placement summary. Progress still streams on the
// session's event hub for watchers. A concurrent delta on the same session
// gets 409 — warm state is inherently single-writer — and so does a delta
// whose session was closed while it ran.
func (s *Server) applyDelta(w http.ResponseWriter, r *http.Request, m *SessionManifest) (*deltaResponse, error) {
	switch m.State {
	case SessionOpen, SessionParked:
	case SessionOpening:
		return nil, httpErrorf(http.StatusConflict, "session %s is still opening", m.ID)
	default:
		return nil, httpErrorf(http.StatusConflict, "session %s is %s", m.ID, m.State)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltaBytes))
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "read delta: %v", err)
	}
	dl, err := eco.ParseDelta(body)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}

	rt := s.sessions.ensure(m.ID)
	if !rt.run.TryLock() {
		return nil, httpErrorf(http.StatusConflict, "session %s has a delta in flight", m.ID)
	}
	defer rt.run.Unlock()

	rt.mu.Lock()
	sess := rt.sess
	rt.mu.Unlock()
	rehydrated := sess == nil
	if rehydrated {
		if sess, err = s.rehydrateSession(m, rt); err != nil {
			return nil, fmt.Errorf("rehydrate session %s: %w", m.ID, err)
		}
	}

	// Tie the warm run to both the client connection and the daemon drain.
	ctx, cancel := context.WithCancelCause(r.Context())
	rt.setCancel(cancel)
	defer func() {
		cancel(nil)
		rt.setCancel(nil)
	}()
	stop := context.AfterFunc(s.baseCtx, func() { cancel(errParked) })
	defer stop()

	start := time.Now()
	res, err := sess.Apply(ctx, dl)
	if err != nil {
		if errors.Is(err, eco.ErrBadDelta) {
			// Rejected before touching the design: warm state is intact.
			rt.setWarm(sess)
			return nil, httpErrorf(http.StatusUnprocessableEntity, "%v", err)
		}
		// The in-memory warm state may be mid-flight; drop it so the next
		// delta rehydrates from the last completed delta's snapshot.
		rt.setWarm(nil)
		switch {
		case errors.Is(context.Cause(ctx), errParked):
			return nil, httpErrorf(http.StatusServiceUnavailable,
				"daemon draining: delta lost; retry after the daemon restarts")
		case errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled):
			return nil, httpErrorf(http.StatusServiceUnavailable, "delta canceled: %v", context.Cause(ctx))
		default:
			return nil, httpErrorf(http.StatusUnprocessableEntity, "apply delta: %v", err)
		}
	}
	um, err := s.commitSession(rt, sess, true)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("serve.session_deltas").Inc()
	s.hWarmDelta.ObserveSince(start)
	rt.hub.Publish(Event{Type: "log",
		Line: fmt.Sprintf("delta %d applied: hpwl=%.6g (%s)", um.Deltas, um.LastHPWL, time.Since(start).Round(time.Millisecond))})
	s.log.InfoContext(r.Context(), "session delta applied",
		"session", m.ID, "delta", um.Deltas, "hpwl", um.LastHPWL,
		"wall", time.Since(start).Round(time.Millisecond), "rehydrated", rehydrated)
	return &deltaResponse{
		ID:         m.ID,
		Deltas:     um.Deltas,
		HPWL:       res.HPWL,
		GPIters:    res.GP.Iters,
		GPOverflow: res.GP.Overflow,
		RuntimeMS:  float64(time.Since(start)) / float64(time.Millisecond),
		Rehydrated: rehydrated,
	}, nil
}

// handleSessionClose cancels in-flight work, marks the session closed, and
// drops its warm state. The spool directory (snapshot included) is kept
// for inspection. A run still in flight finds the session ended when it
// commits and discards its outcome.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, s.spool, sessionRecords)
	if m == nil {
		return
	}
	if m.State.Terminal() {
		WriteError(w, httpErrorf(http.StatusConflict, "session %s already %s", m.ID, m.State))
		return
	}
	rt, live := s.sessions.lookup(m.ID)
	if live {
		rt.cancelRun(errJobCanceled)
	}
	now := time.Now().UTC()
	um, err := s.spool.UpdateSession(m.ID, func(mm *SessionManifest) error {
		if err := refuseEnded(mm); err != nil {
			return err
		}
		mm.State = SessionClosed
		mm.ClosedAt = &now
		return nil
	})
	if err != nil {
		WriteError(w, err)
		return
	}
	if live {
		rt.setWarm(nil)
		rt.hub.Publish(Event{Type: "state", State: JobState(SessionClosed)})
		rt.hub.Close()
		rt.closeTelemetry(s.log)
	}
	// Closed sessions enter hub retention like finished jobs.
	s.sessions.retire(m.ID)
	s.reg.Counter("serve.sessions_closed").Inc()
	s.log.InfoContext(r.Context(), "session closed", "session", m.ID, "deltas", um.Deltas)
	WriteJSON(w, http.StatusOK, um)
}

// handleSessionEvents streams the session's progress hub as SSE, exactly
// like job events.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	m := loadRecord(w, r, s.spool, sessionRecords)
	if m == nil {
		return
	}
	serveEvents(w, Event{Type: "state", State: JobState(m.State), Error: m.Error}, func(out *EventStream) bool {
		rt, ok := s.sessions.lookup(m.ID)
		if ok {
			rt.hub.Stream(r.Context(), out, s.hSSE)
		}
		return ok
	})
}
