package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"puffer/internal/obs"
)

// Event is one progress notification of a running job, streamed to
// watchers as a server-sent event whose SSE event name is Type.
type Event struct {
	// Seq is the event's position in the job's stream, monotonically
	// increasing from 1; late subscribers replay the retained tail and
	// can detect gaps.
	Seq int `json:"seq"`
	// Type is "state", "stage", "sample", or "log".
	Type string `json:"type"`

	// State accompanies type=state (and carries the final state on the
	// stream-terminating event).
	State JobState `json:"state,omitempty"`
	// Error carries the failure message on a terminal state event.
	Error string `json:"error,omitempty"`

	// Stage and StageStatus accompany type=stage: status "done" with the
	// stage's iteration count and wall milliseconds.
	Stage       string  `json:"stage,omitempty"`
	StageStatus string  `json:"stage_status,omitempty"`
	Iters       int     `json:"iters,omitempty"`
	WallMS      float64 `json:"wall_ms,omitempty"`

	// Series/Step/Value accompany type=sample: one metric observation
	// (place.hpwl, place.overflow, explore.trial.score, …) forwarded
	// live from the job's metrics registry.
	Series string  `json:"series,omitempty"`
	Step   int     `json:"step,omitempty"`
	Value  float64 `json:"value,omitempty"`

	// Line accompanies type=log: one flow stage-log line.
	Line string `json:"line,omitempty"`
}

// hubRing is the number of events a hub retains for replay to late
// subscribers. Metric samples arrive per optimizer call (not per Nesterov
// iteration), so a few thousand events cover any realistic job.
const hubRing = 4096

// Hub is one job's progress broadcast: it retains a ring of recent events
// and fans new ones out to live subscribers. Subscribers that fall behind
// a full channel buffer have events dropped (the Seq gap tells them);
// progress streaming must never backpressure the placement engine.
type Hub struct {
	mu     sync.Mutex
	seq    int
	ring   []Event
	subs   map[chan Event]struct{}
	closed bool
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan Event]struct{})}
}

// Publish stamps e's sequence number, retains it, and fans it out.
func (h *Hub) Publish(e Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.seq++
	e.Seq = h.seq
	h.ring = append(h.ring, e)
	if len(h.ring) > hubRing {
		h.ring = h.ring[len(h.ring)-hubRing:]
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop, Seq exposes the gap
		}
	}
	h.mu.Unlock()
}

// Close ends the stream: subscriber channels are closed after the retained
// events, and future Publish calls are ignored.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = map[chan Event]struct{}{}
}

// Subscribe returns the replay of retained events, plus a channel of live
// events (closed when the job's stream ends) and a cancel function the
// subscriber must call when done. On an already-closed hub the channel
// comes back closed and replay still carries the tail of the stream.
func (h *Hub) Subscribe() (replay []Event, ch chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append([]Event(nil), h.ring...)
	ch = make(chan Event, 256)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// Stream writes the hub into out: the retained replay first (one flush),
// then live events until the hub closes (true) or ctx ends or the client
// goes away (false). Each live write+flush is timed into fanout (nil
// skips it) — the latency a watcher sees between an event being
// published and reaching its socket buffer.
func (h *Hub) Stream(ctx context.Context, out *EventStream, fanout *obs.Histogram) bool {
	replay, live, cancel := h.Subscribe()
	defer cancel()
	for _, e := range replay {
		if !out.Write(e) {
			return false
		}
	}
	out.Flush()
	for {
		select {
		case e, open := <-live:
			if !open {
				return true
			}
			t0 := time.Now()
			if !out.Send(e) {
				return false
			}
			fanout.ObserveSince(t0)
		case <-ctx.Done():
			return false
		}
	}
}

// EventStream is an open server-sent-event response: one
// "event: <type>\ndata: <json>\n\n" frame per Event.
type EventStream struct {
	w  io.Writer
	fl http.Flusher
}

// serveEvents opens an SSE response on w and hands it to fn.
func serveEvents(w http.ResponseWriter, fn func(out *EventStream)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		apiError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fn(&EventStream{w: w, fl: fl})
}

// Write frames e without flushing; it reports false once the client is
// gone.
func (s *EventStream) Write(e Event) bool {
	data, _ := json.Marshal(e)
	_, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", e.Type, data)
	return err == nil
}

// Flush pushes the written frames to the client.
func (s *EventStream) Flush() { s.fl.Flush() }

// Send writes and flushes one event.
func (s *EventStream) Send(e Event) bool {
	if !s.Write(e) {
		return false
	}
	s.fl.Flush()
	return true
}

// ReadEvents decodes an SSE stream written by EventStream, handing each
// event to fn until the stream ends or fn returns false. Lines that are
// not well-formed data frames are skipped.
func ReadEvents(r io.Reader, fn func(Event) bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e Event
		if json.Unmarshal([]byte(data), &e) != nil {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// hubSink adapts a Hub to obs.Sink, so every metric sample a job's
// registry observes is also a live progress event.
type hubSink struct{ h *Hub }

// Observe implements obs.Sink.
func (s hubSink) Observe(series string, sm obs.Sample) {
	s.h.Publish(Event{Type: "sample", Series: series, Step: sm.Step, Value: sm.Value})
}

// Flush implements obs.Sink.
func (s hubSink) Flush() error { return nil }
