package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"puffer/internal/eco"
	"puffer/internal/netlist"
	"puffer/internal/obs"
	"puffer/pipeline"
)

// SessionManifestFormat identifies the session manifest JSON document
// version.
const SessionManifestFormat = "puffer/session/v1"

// SessionState is the lifecycle state of an ECO session. Transitions:
//
//	opening → open | failed
//	open → parked (graceful drain / daemon restart) → open (next delta rehydrates)
//	open | parked → closed (client close)
//
// A session whose daemon restarted while still opening has no spooled
// snapshot to resume from, so it fails; the client reopens it.
type SessionState string

// Session lifecycle states.
const (
	SessionOpening SessionState = "opening"
	SessionOpen    SessionState = "open"
	SessionParked  SessionState = "parked"
	SessionFailed  SessionState = "failed"
	SessionClosed  SessionState = "closed"
)

// Terminal reports whether a session in state s will never accept another
// delta.
func (s SessionState) Terminal() bool {
	return s == SessionFailed || s == SessionClosed
}

// SessionSpec is what a client posts to open an ECO session: a place
// job's design source and flow knobs, plus the warm re-place caps. The
// shared rules (defaults, validation, design, configuration) are JobSpec's,
// reached through asJob.
type SessionSpec struct {
	// Profile names a synthetic benchmark profile (internal/synth);
	// exactly one of Profile and Bookshelf must be set.
	Profile string `json:"profile,omitempty"`
	// Scale is the profile scale divisor (default 800).
	Scale int `json:"scale,omitempty"`
	// Seed is the generation/placement seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Bookshelf inlines an uploaded design as filename → file content.
	Bookshelf map[string]string `json:"bookshelf,omitempty"`

	// MaxIters caps cold global-placement iterations (0 = engine default).
	MaxIters int `json:"max_iters,omitempty"`
	// Workers caps the session's data parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Strategy, when non-empty, is a padding.Strategy JSON document.
	Strategy json.RawMessage `json:"strategy,omitempty"`

	// WarmMaxIters / WarmMinIters tune the per-delta warm re-place
	// (eco.Options); 0 derives the defaults from the cold configuration.
	WarmMaxIters int `json:"warm_max_iters,omitempty"`
	WarmMinIters int `json:"warm_min_iters,omitempty"`
}

// asJob returns the spec's design source and flow knobs as a place job.
func (s *SessionSpec) asJob() JobSpec {
	return JobSpec{Kind: KindPlace, Profile: s.Profile, Scale: s.Scale, Seed: s.Seed,
		Bookshelf: s.Bookshelf, MaxIters: s.MaxIters, Workers: s.Workers, Strategy: s.Strategy}
}

// Normalize fills defaulted fields in place.
func (s *SessionSpec) Normalize() {
	j := s.asJob()
	j.Normalize()
	s.Scale, s.Seed = j.Scale, j.Seed
}

// Validate rejects malformed specs with a client-presentable error.
func (s *SessionSpec) Validate() error {
	j := s.asJob()
	if err := j.Validate(); err != nil {
		return err
	}
	if s.WarmMaxIters < 0 || s.WarmMinIters < 0 {
		return fmt.Errorf("negative warm_max_iters/warm_min_iters")
	}
	return nil
}

// designName is the profile, or the uploaded .aux file's name.
func (s *SessionSpec) designName() string {
	if s.Profile != "" {
		return s.Profile
	}
	j := s.asJob()
	return j.AuxName()
}

// SessionManifest is the durable record of one ECO session, spooled as
// manifest.json in the session's directory and rewritten atomically on
// every transition. The warm state itself lives next to it in
// snapshot.json (eco.Snapshot), rewritten after the base placement and
// after every applied delta — so a parked or crashed session resumes from
// its last completed delta.
type SessionManifest struct {
	Format string       `json:"format"`
	ID     string       `json:"id"`
	Spec   SessionSpec  `json:"spec"`
	State  SessionState `json:"state"`
	// Error is the failure message for failed sessions.
	Error string `json:"error,omitempty"`

	// Deltas counts applied deltas; LastHPWL/LastOverflow summarize the
	// most recent placement (base or delta).
	Deltas       int     `json:"deltas"`
	LastHPWL     float64 `json:"last_hpwl,omitempty"`
	LastOverflow float64 `json:"last_overflow,omitempty"`
	// DesignHash is the eco.DesignHash the snapshot is bound to.
	DesignHash string `json:"design_hash,omitempty"`

	OpenedAt    time.Time  `json:"opened_at"`
	LastDeltaAt *time.Time `json:"last_delta_at,omitempty"`
	ClosedAt    *time.Time `json:"closed_at,omitempty"`
}

// --- session runtime -----------------------------------------------------

func (m *SessionManifest) ecoOptions() eco.Options {
	return eco.Options{WarmMaxIters: m.Spec.WarmMaxIters, WarmMinIters: m.Spec.WarmMinIters}
}

// refuseEnded refuses a manifest update once the session is terminal: a
// close that lands while a base placement or delta is in flight wins.
func refuseEnded(mm *SessionManifest) error {
	if mm.State.Terminal() {
		return httpErrorf(http.StatusConflict, "session %s is %s", mm.ID, mm.State)
	}
	return nil
}

// sessionBase builds what a cold open and a rehydrate both start from:
// the design and the pipeline configuration, recording into the session's
// telemetry. The design never comes from the design cache — a session owns
// and mutates it.
func (s *Server) sessionBase(m *SessionManifest, rt *entry) (*netlist.Design, pipeline.Config, error) {
	spec := m.Spec.asJob()
	d, err := newDesign(&spec, s.spool.SessionDir(m.ID))
	if err != nil {
		return nil, pipeline.Config{}, fmt.Errorf("build design: %w", err)
	}
	cfg, err := placeConfig(&spec, rt.openTelemetry(obs.TraceContext{}), rt.hub)
	return d, cfg, err
}

// commitSession spools sess's snapshot, then records it in the manifest
// and re-installs the warm state — unless the session ended meanwhile
// (409). The snapshot goes first: once the client sees the outcome, a
// parked or crashed daemon must resume from *this* state. On failure the
// warm state and its telemetry are dropped; a later delta rehydrates.
func (s *Server) commitSession(rt *entry, sess *eco.Session, delta bool) (*SessionManifest, error) {
	sn, err := sess.Snapshot()
	if err == nil {
		err = sn.Save(s.spool.SessionSnapshotPath(rt.id))
	}
	var um *SessionManifest
	if err != nil {
		err = fmt.Errorf("spool snapshot: %w", err)
	} else {
		um, err = s.spool.UpdateSession(rt.id, func(mm *SessionManifest) error {
			if err := refuseEnded(mm); err != nil {
				return err
			}
			mm.State = SessionOpen
			mm.Deltas = sn.Deltas
			mm.LastHPWL = sn.LastHPWL
			mm.LastOverflow = sn.LastOverflow
			mm.DesignHash = sn.DesignHash
			if delta {
				now := time.Now().UTC()
				mm.LastDeltaAt = &now
			}
			// Under the spool lock, so a close (which drops the warm state
			// after writing closed) cannot interleave.
			rt.setWarm(sess)
			return nil
		})
	}
	if err != nil {
		rt.setWarm(nil)
		rt.closeTelemetry(s.log)
		return nil, err
	}
	return um, nil
}

// openSession runs the session's base placement. It is called on its own
// goroutine (tracked by the server wait group) with rt.run held; the POST
// handler has already returned 202, so progress flows through the hub and
// the outcome lands in the manifest.
func (s *Server) openSession(m *SessionManifest, rt *entry) {
	defer s.wg.Done()
	defer rt.run.Unlock()
	start := time.Now()

	ctx, cancel := context.WithCancelCause(s.baseCtx)
	rt.setCancel(cancel)
	defer func() {
		cancel(nil)
		rt.setCancel(nil)
	}()

	sess, err := s.placeSession(ctx, m, rt)
	var um *SessionManifest
	if err == nil {
		um, err = s.commitSession(rt, sess, false)
	}
	if err != nil {
		s.failSession(rt, err)
		return
	}
	rt.hub.Publish(Event{Type: "state", State: JobState(SessionOpen)})
	s.reg.Counter("serve.sessions_opened").Inc()
	s.hColdOpen.ObserveSince(start)
	s.log.Info("session open",
		"session", m.ID, "hpwl", um.LastHPWL, "wall", time.Since(start).Round(time.Millisecond))
}

// placeSession builds the session's engine and runs its base placement.
func (s *Server) placeSession(ctx context.Context, m *SessionManifest, rt *entry) (*eco.Session, error) {
	d, cfg, err := s.sessionBase(m, rt)
	if err != nil {
		return nil, err
	}
	sess, err := eco.New(d, cfg, m.ecoOptions())
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	if _, err := sess.Place(ctx); err != nil {
		if errors.Is(err, pipeline.ErrCanceled) || errors.Is(err, context.Canceled) {
			// A session interrupted before its base placement has no
			// snapshot to park; it fails and the client reopens it.
			return nil, fmt.Errorf("base placement interrupted: %v", context.Cause(ctx))
		}
		return nil, fmt.Errorf("base placement: %w", err)
	}
	return sess, nil
}

// failSession records a failed open. A session closed meanwhile stays
// closed — the close already ended its hub and retired it.
func (s *Server) failSession(rt *entry, err error) {
	msg := err.Error()
	s.log.Error("session open failed", "session", rt.id, "error", msg)
	rt.closeTelemetry(s.log)
	_, uerr := s.spool.UpdateSession(rt.id, func(mm *SessionManifest) error {
		if err := refuseEnded(mm); err != nil {
			return err
		}
		mm.State = SessionFailed
		mm.Error = msg
		return nil
	})
	var ended *HTTPError
	if errors.As(uerr, &ended) {
		return
	}
	rt.hub.Publish(Event{Type: "state", State: JobState(SessionFailed), Error: msg})
	rt.hub.Close()
	s.sessions.retire(rt.id)
}

// rehydrateSession rebuilds the in-memory eco.Session of a parked or
// evicted session from the spooled snapshot. Caller holds rt.run.
func (s *Server) rehydrateSession(m *SessionManifest, rt *entry) (*eco.Session, error) {
	d, cfg, err := s.sessionBase(m, rt)
	if err != nil {
		return nil, err
	}
	sn, err := eco.LoadSnapshot(s.spool.SessionSnapshotPath(m.ID))
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	sess, err := eco.Restore(d, cfg, m.ecoOptions(), sn)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("serve.sessions_rehydrated").Inc()
	s.log.Info("session rehydrated from snapshot", "session", m.ID, "deltas", sn.Deltas)
	return sess, nil
}

// evictIdleSessions drops the in-memory warm state of sessions idle for
// longer than idle. The spooled snapshot stays authoritative, so the next
// delta transparently rehydrates; the manifest stays open.
func (s *Server) evictIdleSessions(idle time.Duration) {
	for _, rt := range s.sessions.all() {
		if !rt.run.TryLock() {
			continue // delta in flight: not idle
		}
		rt.mu.Lock()
		expired := rt.sess != nil && time.Since(rt.lastUsed) >= idle
		if expired {
			rt.sess = nil
		}
		rt.mu.Unlock()
		if expired {
			// Release the telemetry with the warm state: the expvar
			// registration and metric stream go; the next delta's rehydrate
			// rebuilds and republishes them alongside the eco.Session.
			rt.closeTelemetry(s.log)
		}
		rt.run.Unlock()
		if expired {
			s.reg.Counter("serve.sessions_evicted").Inc()
			s.log.Info("session warm state evicted (snapshot retained)", "session", rt.id)
		}
	}
}

// sessionJanitor periodically evicts idle sessions until the server stops.
func (s *Server) sessionJanitor(idle time.Duration) {
	defer s.wg.Done()
	period := idle / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.drainCh:
			return
		case <-t.C:
			s.evictIdleSessions(idle)
		}
	}
}

// parkSessions marks every non-terminal session parked (terminally failing
// the ones still opening) and cancels in-flight session work. Called from
// Drain; in-flight deltas are lost — their clients get an error and retry
// against the restarted daemon, which rehydrates from the last completed
// delta's snapshot.
func (s *Server) parkSessions() {
	rts := s.sessions.all()
	for _, rt := range rts {
		rt.cancelRun(errParked)
	}
	// Flush each runtime's telemetry so parked sessions leave their span
	// trees and metric streams on disk for the next boot's operator.
	for _, rt := range rts {
		rt.closeTelemetry(s.log)
	}
	all, err := sessionRecords.list(s.spool)
	if err != nil {
		s.log.Error("park sessions", "error", err)
		return
	}
	for _, m := range all {
		if m.State != SessionOpen && m.State != SessionParked {
			continue
		}
		if _, err := s.spool.UpdateSession(m.ID, func(mm *SessionManifest) error {
			if mm.State == SessionOpen {
				mm.State = SessionParked
			}
			return nil
		}); err != nil {
			s.log.Error("park session", "session", m.ID, "error", err)
		}
	}
}
