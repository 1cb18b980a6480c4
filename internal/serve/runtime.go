package serve

import (
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"puffer/internal/eco"
	"puffer/internal/obs"
)

// entry is the runtime entry of one job or session this boot, its
// in-memory side: the progress hub, the cancel of its in-flight work, and
// its telemetry while open. A session also keeps its warm eco.Session here (nil when evicted
// or parked — rehydrated lazily from the spooled snapshot on the next
// delta).
type entry struct {
	id   string
	hub  *Hub
	dir  string // spool directory: metrics.jsonl and trace.json land here
	name string // expvar name: job-<id> or session-<id>

	// run serializes a session's work: the base placement and every delta
	// hold it, so a concurrent delta gets 409.
	run sync.Mutex

	mu       sync.Mutex // guards the fields below
	cancel   context.CancelCauseFunc
	tel      *telemetry
	sess     *eco.Session
	lastUsed time.Time
}

// telemetry is one runtime's open observability: a registry streaming to
// the hub and to the spooled metrics.jsonl, and a tracer for trace.json.
type telemetry struct {
	rec  *obs.Recorder
	f    *os.File
	sink obs.Sink
}

// setCancel installs (or, with nil, clears) the cancel of in-flight work.
func (rt *entry) setCancel(cancel context.CancelCauseFunc) {
	rt.mu.Lock()
	rt.cancel = cancel
	rt.mu.Unlock()
}

// cancelRun cancels in-flight work, if any, with cause.
func (rt *entry) cancelRun(cause error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.cancel != nil {
		rt.cancel(cause)
	}
}

// running reports whether work is in flight.
func (rt *entry) running() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.cancel != nil
}

// warm reports whether a session holds its eco.Session in memory.
func (rt *entry) warm() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sess != nil
}

// setWarm installs (or, with nil, drops) a session's warm state.
func (rt *entry) setWarm(sess *eco.Session) {
	rt.mu.Lock()
	rt.sess, rt.lastUsed = sess, time.Now()
	rt.mu.Unlock()
}

// openTelemetry returns the runtime's recorder, opening its telemetry on
// first use: an isolated registry whose samples stream to the hub and to
// the spooled metrics.jsonl, a tracer that joins tc (a zero tc starts a
// fresh trace), and a live expvar registration. A reopen after
// closeTelemetry rebuilds everything, so a rehydrated session republishes.
func (rt *entry) openTelemetry(tc obs.TraceContext) *obs.Recorder {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tel != nil {
		return rt.tel.rec
	}
	t := &telemetry{}
	sinks := []obs.Sink{hubSink{rt.hub}}
	if f, err := os.OpenFile(filepath.Join(rt.dir, "metrics.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
		t.f, t.sink = f, obs.NewJSONLSink(f)
		sinks = append(sinks, t.sink)
	}
	reg := obs.NewRegistry(sinks...)
	t.rec = obs.NewRecorder(obs.NewTracerWith(tc), reg)
	obs.PublishExpvar(rt.name, reg)
	rt.tel = t
	return t.rec
}

// closeTelemetry spools the span tree as trace.json, flushes and closes
// the metric stream, and drops the expvar registration — regardless of
// the run's outcome: a parked or failed run's partial telemetry is exactly
// what the operator wants to look at. Without the unpublish, finished
// runs would pin their registries in the process-global expvar map. A
// no-op when nothing is open.
func (rt *entry) closeTelemetry(log *slog.Logger) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t := rt.tel
	if t == nil {
		return
	}
	rt.tel = nil
	if tr := t.rec.Tracer(); tr.Len() > 0 {
		if err := tr.WriteFile(filepath.Join(rt.dir, "trace.json")); err != nil {
			log.Error("write trace artifact", "runtime", rt.name, "error", err)
		}
	}
	if t.sink != nil {
		t.sink.Flush()
		t.f.Close()
	}
	obs.UnpublishExpvar(rt.name)
}

// hubRetention bounds how many finished jobs (and, separately, terminal
// sessions) keep their runtime — event hub included — in memory for late
// watchers; older ones fall back to the spooled manifest and artifacts.
const hubRetention = 128

// runtimes is one record kind's table of runtime entries: every job (or
// session) seen this boot, finished ones included until retention drops
// them.
type runtimes struct {
	kind string                 // "job" or "session": the expvar prefix
	dir  func(id string) string // the record's spool directory

	mu       sync.Mutex
	live     map[string]*entry
	finished []string // retention order
}

func newRuntimes(kind string, dir func(string) string) *runtimes {
	return &runtimes{kind: kind, dir: dir, live: make(map[string]*entry)}
}

// ensure returns the entry for id, creating it on first use this boot.
func (t *runtimes) ensure(id string) *entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	rt, ok := t.live[id]
	if !ok {
		rt = &entry{id: id, hub: NewHub(), dir: t.dir(id), name: t.kind + "-" + id, lastUsed: time.Now()}
		t.live[id] = rt
	}
	return rt
}

// lookup returns the entry for id, if this boot has one.
func (t *runtimes) lookup(id string) (*entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rt, ok := t.live[id]
	return rt, ok
}

// forget drops id's entry outright (an admission that did not happen).
func (t *runtimes) forget(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, id)
}

// all returns a snapshot of every entry.
func (t *runtimes) all() []*entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*entry, 0, len(t.live))
	for _, rt := range t.live {
		out = append(out, rt)
	}
	return out
}

// retire enrolls a terminal record in hub retention: its runtime stays for
// late watchers up to the retention bound, then drops. The caller must
// already have closed the runtime's telemetry, or the expvar registration
// leaks past the runtime.
func (t *runtimes) retire(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished = append(t.finished, id)
	for len(t.finished) > hubRetention {
		delete(t.live, t.finished[0])
		t.finished = t.finished[1:]
	}
}
