package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"puffer/internal/eco"
	"puffer/internal/synth"
	"puffer/pipeline"
)

// maxDeltaBytes bounds a posted delta document.
const maxDeltaBytes = 16 << 20

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		apiError(w, http.StatusServiceUnavailable, "daemon is draining; not opening sessions")
		return
	}
	var spec SessionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		apiError(w, http.StatusBadRequest, "decode session spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		apiError(w, http.StatusBadRequest, "invalid session spec: %v", err)
		return
	}
	if spec.Profile != "" {
		if _, err := synth.ProfileByName(spec.Profile); err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	m := &SessionManifest{
		ID:       newJobID(),
		Spec:     spec,
		State:    SessionOpening,
		OpenedAt: time.Now().UTC(),
	}
	if err := s.spool.CreateSession(m); err != nil {
		apiError(w, http.StatusInternalServerError, "spool session: %v", err)
		return
	}
	rt := s.ensureSession(m.ID)
	rt.run.Lock() // released by openSession
	s.wg.Add(1)
	go s.openSession(m, rt)
	s.reg.Counter("serve.sessions_submitted").Inc()
	s.log.InfoContext(r.Context(), "session opening", "session", m.ID, "design", sessionDesignName(&spec))
	WriteJSON(w, http.StatusAccepted, m)
}

func sessionDesignName(spec *SessionSpec) string {
	if spec.Profile != "" {
		return spec.Profile
	}
	return spec.AuxName()
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
	ms, err := s.spool.ListSessions()
	if err != nil {
		apiError(w, http.StatusInternalServerError, "list sessions: %v", err)
		return
	}
	out := make([]sessionSummary, 0, len(ms))
	for _, m := range ms {
		row := sessionSummary{
			ID: m.ID, Design: sessionDesignName(&m.Spec), State: m.State,
			Deltas: m.Deltas, LastHPWL: m.LastHPWL,
			OpenedAt: m.OpenedAt, LastDeltaAt: m.LastDeltaAt, Error: m.Error,
		}
		if rt, ok := s.sessionRuntimeFor(m.ID); ok {
			rt.mu.Lock()
			row.Warm = rt.sess != nil
			rt.mu.Unlock()
		}
		out = append(out, row)
	}
	WriteJSON(w, http.StatusOK, out)
}

// loadSessionManifest fetches the manifest for the path's {id}, writing
// the 404.
func (s *Server) loadSessionManifest(w http.ResponseWriter, r *http.Request) *SessionManifest {
	id := r.PathValue("id")
	m, err := s.spool.ReadSessionManifest(id)
	if err != nil {
		apiError(w, http.StatusNotFound, "session %s: %v", id, err)
		return nil
	}
	return m
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if m := s.loadSessionManifest(w, r); m != nil {
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

// handleSessionDelta applies one ECO delta synchronously: the warm
// re-place is the fast path (an order of magnitude under the cold wall),
// so the response carries the new placement summary. Progress still
// streams on the session's event hub for watchers. A concurrent delta on
// the same session gets 409 — warm state is inherently single-writer.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		apiError(w, http.StatusServiceUnavailable, "daemon is draining; not accepting deltas")
		return
	}
	m := s.loadSessionManifest(w, r)
	if m == nil {
		return
	}
	switch m.State {
	case SessionOpen, SessionParked:
	case SessionOpening:
		apiError(w, http.StatusConflict, "session %s is still opening", m.ID)
		return
	default:
		apiError(w, http.StatusConflict, "session %s is %s", m.ID, m.State)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDeltaBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, "read delta: %v", err)
		return
	}
	dl, err := eco.ParseDelta(body)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}

	rt := s.ensureSession(m.ID)
	if !rt.run.TryLock() {
		apiError(w, http.StatusConflict, "session %s has a delta in flight", m.ID)
		return
	}
	defer rt.run.Unlock()

	rt.mu.Lock()
	sess := rt.sess
	rt.mu.Unlock()
	rehydrated := false
	if sess == nil {
		sess, err = s.rehydrateSession(m, rt)
		if err != nil {
			apiError(w, http.StatusInternalServerError, "rehydrate session %s: %v", m.ID, err)
			return
		}
		rehydrated = true
	}

	// Tie the warm run to both the client connection and the daemon drain.
	ctx, cancel := context.WithCancelCause(r.Context())
	rt.mu.Lock()
	rt.cancel = cancel
	rt.mu.Unlock()
	defer func() {
		cancel(nil)
		rt.mu.Lock()
		rt.cancel = nil
		rt.mu.Unlock()
	}()
	stop := context.AfterFunc(s.baseCtx, func() { cancel(errParked) })
	defer stop()

	start := time.Now()
	res, err := sess.Apply(ctx, dl)
	if err != nil {
		if errors.Is(err, eco.ErrBadDelta) {
			// Rejected before touching the design: warm state is intact.
			rt.mu.Lock()
			rt.sess = sess
			rt.mu.Unlock()
			apiError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		// The in-memory warm state may be mid-flight; drop it so the next
		// delta rehydrates from the last completed delta's snapshot.
		rt.mu.Lock()
		rt.sess = nil
		rt.mu.Unlock()
		switch {
		case errors.Is(context.Cause(ctx), errParked):
			apiError(w, http.StatusServiceUnavailable,
				"daemon draining: delta lost; retry after the daemon restarts")
		case errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled):
			apiError(w, http.StatusServiceUnavailable, "delta canceled: %v", context.Cause(ctx))
		default:
			apiError(w, http.StatusUnprocessableEntity, "apply delta: %v", err)
		}
		return
	}

	// Spool the new snapshot before acknowledging: once the client sees
	// 200, a parked/crashed daemon must resume from *this* delta.
	sn, serr := sess.Snapshot()
	if serr == nil {
		serr = sn.Save(s.spool.SessionSnapshotPath(m.ID))
	}
	if serr != nil {
		rt.mu.Lock()
		rt.sess = nil
		rt.mu.Unlock()
		apiError(w, http.StatusInternalServerError, "spool snapshot: %v", serr)
		return
	}
	rt.mu.Lock()
	rt.sess = sess
	rt.lastUsed = time.Now()
	rt.mu.Unlock()

	now := time.Now().UTC()
	um, uerr := s.spool.UpdateSession(m.ID, func(mm *SessionManifest) error {
		mm.State = SessionOpen
		mm.Deltas = sn.Deltas
		mm.LastHPWL = sn.LastHPWL
		mm.LastOverflow = sn.LastOverflow
		mm.DesignHash = sn.DesignHash
		mm.LastDeltaAt = &now
		return nil
	})
	if uerr != nil {
		apiError(w, http.StatusInternalServerError, "update session manifest: %v", uerr)
		return
	}
	s.reg.Counter("serve.session_deltas").Inc()
	s.hWarmDelta.ObserveSince(start)
	rt.hub.Publish(Event{Type: "log",
		Line: fmt.Sprintf("delta %d applied: hpwl=%.6g (%s)", um.Deltas, sn.LastHPWL, time.Since(start).Round(time.Millisecond))})
	s.log.InfoContext(r.Context(), "session delta applied",
		"session", m.ID, "delta", um.Deltas, "hpwl", sn.LastHPWL,
		"wall", time.Since(start).Round(time.Millisecond), "rehydrated", rehydrated)
	WriteJSON(w, http.StatusOK, deltaResponse{
		ID:         m.ID,
		Deltas:     um.Deltas,
		HPWL:       res.HPWL,
		GPIters:    res.GP.Iters,
		GPOverflow: res.GP.Overflow,
		RuntimeMS:  float64(time.Since(start)) / float64(time.Millisecond),
		Rehydrated: rehydrated,
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	m := s.loadSessionManifest(w, r)
	if m == nil {
		return
	}
	if m.State.Terminal() {
		apiError(w, http.StatusConflict, "session %s already %s", m.ID, m.State)
		return
	}
	// Cancel in-flight work, then mark closed and drop the warm state. The
	// spool directory (snapshot included) is kept for inspection.
	if rt, ok := s.sessionRuntimeFor(m.ID); ok {
		rt.mu.Lock()
		if rt.cancel != nil {
			rt.cancel(errJobCanceled)
		}
		rt.sess = nil
		rt.mu.Unlock()
	}
	now := time.Now().UTC()
	um, err := s.spool.UpdateSession(m.ID, func(mm *SessionManifest) error {
		mm.State = SessionClosed
		mm.ClosedAt = &now
		return nil
	})
	if err != nil {
		apiError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if rt, ok := s.sessionRuntimeFor(m.ID); ok {
		rt.hub.Publish(Event{Type: "state", State: JobState(SessionClosed)})
		rt.hub.Close()
		rt.closeTelemetry(s)
	}
	// Closed sessions enter hub retention like finished jobs; before this,
	// a closed session's runtime (and its expvar registry) lived forever.
	s.retireSession(m.ID)
	s.reg.Counter("serve.sessions_closed").Inc()
	s.log.InfoContext(r.Context(), "session closed", "session", m.ID, "deltas", um.Deltas)
	WriteJSON(w, http.StatusOK, um)
}

// handleSessionEvents streams the session's progress hub as SSE, exactly
// like job events; terminal sessions with no retained hub get a single
// synthetic state event.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	m := s.loadSessionManifest(w, r)
	if m == nil {
		return
	}
	serveEvents(w, func(out *EventStream) {
		if rt, ok := s.sessionRuntimeFor(m.ID); ok {
			rt.hub.Stream(r.Context(), out, s.hSSE)
			return
		}
		out.Send(Event{Type: "state", State: JobState(m.State), Error: m.Error})
	})
}
