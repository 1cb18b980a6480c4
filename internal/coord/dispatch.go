package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"puffer/internal/cas"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

// tenantQueue is one tenant's pending FIFO plus its dispatch token
// bucket. Fairness is round-robin across tenants with work, so one
// tenant flooding the coordinator delays only itself.
type tenantQueue struct {
	pending []string // coordinator job IDs, oldest first
	tokens  float64
	last    time.Time
}

// take consumes one dispatch token if the bucket (rate r/s, burst b) has
// one, refilling lazily. Unlimited when r <= 0.
func (q *tenantQueue) take(r float64, b int, now time.Time) bool {
	if r <= 0 {
		return true
	}
	if q.last.IsZero() {
		q.tokens = float64(b)
	} else {
		q.tokens += now.Sub(q.last).Seconds() * r
		if q.tokens > float64(b) {
			q.tokens = float64(b)
		}
	}
	q.last = now
	if q.tokens < 1 {
		return false
	}
	q.tokens--
	return true
}

// coordJob is the in-memory runtime of one dispatched job: its watcher's
// cancel and the tracer that stitches the client → coordinator → worker
// spans into a single trace.
type coordJob struct {
	cancel context.CancelFunc
	tracer *obs.Tracer
	span   *obs.Span // the open coord.job root span
}

// enqueueLocked appends m to its tenant queue (creating the tenant lane on
// first use). Callers without s.mu held must use enqueue.
func (s *Server) enqueueLocked(m *serve.Manifest) {
	tenant := m.Tenant
	if tenant == "" {
		tenant = "default"
	}
	q, ok := s.tenants[tenant]
	if !ok {
		q = &tenantQueue{}
		s.tenants[tenant] = q
		s.order = append(s.order, tenant)
	}
	q.pending = append(q.pending, m.ID)
	s.pending++
}

func (s *Server) enqueue(m *serve.Manifest) {
	s.mu.Lock()
	s.enqueueLocked(m)
	s.mu.Unlock()
	s.kickDispatch()
	s.publishGauges()
}

// retryAfter estimates how long a rejected submitter should wait: one
// watcher poll per pending job ahead of it, floored at 2s.
func (s *Server) retryAfter() time.Duration {
	s.mu.Lock()
	pending := s.pending
	s.mu.Unlock()
	d := time.Duration(pending) * s.cfg.Poll
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

// dispatchLoop moves pending jobs to workers: round-robin across tenants
// (fairness), token bucket per tenant (rate limits), least-loaded live
// engine-matched node (placement). It wakes on submissions, heartbeats,
// requeues, and a timer (rate-limit tokens refill with time).
func (s *Server) dispatchLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.kick:
		case <-tick.C:
		}
		for s.dispatchOne() {
		}
	}
}

// dispatchOne dispatches at most one pending job, returning whether it
// made progress (the loop drains until it cannot).
func (s *Server) dispatchOne() bool {
	now := time.Now()
	s.mu.Lock()
	if s.pending == 0 || len(s.order) == 0 {
		s.mu.Unlock()
		return false
	}
	// Round-robin: first tenant with pending work AND an available token.
	var (
		q      *tenantQueue
		tenant string
	)
	for i := 0; i < len(s.order); i++ {
		cand := s.order[(s.rr+i)%len(s.order)]
		cq := s.tenants[cand]
		if len(cq.pending) == 0 {
			continue
		}
		if !cq.take(s.cfg.TenantRate, s.cfg.TenantBurst, now) {
			continue
		}
		q, tenant = cq, cand
		s.rr = (s.rr + i + 1) % len(s.order)
		break
	}
	if q == nil {
		s.mu.Unlock()
		return false
	}
	n := s.pickNodeLocked(now)
	if n == nil {
		// Token spent with no node up — harmless, the bucket refills.
		s.mu.Unlock()
		return false
	}
	id := q.pending[0]
	q.pending = q.pending[1:]
	s.pending--
	nodeID, nodeAddr := n.mf.ID, n.mf.Addr
	s.mu.Unlock()

	if err := s.dispatch(id, nodeID, nodeAddr); err != nil {
		s.log.Warn("dispatch failed", "job", id, "node", nodeID, "tenant", tenant, "error", err)
		// Put the job back at the head of its lane and back the node off
		// briefly (a 429 already set a longer window from Retry-After) so
		// the next attempt prefers a different worker — a draining or
		// unreachable node with stale-fresh heartbeats must not wedge the
		// queue.
		s.mu.Lock()
		if n, ok := s.nodes[nodeID]; ok {
			if until := time.Now().Add(time.Second); n.unavailableUntil.Before(until) {
				n.unavailableUntil = until
			}
		}
		if q2, ok := s.tenants[tenant]; ok {
			q2.pending = append([]string{id}, q2.pending...)
			s.pending++
		}
		s.mu.Unlock()
		return false
	}
	s.publishGauges()
	return true
}

// pickNodeLocked selects the dispatch target: live, not draining, engine
// matched, past any 429 backoff, lowest load (in-flight from this
// coordinator plus the node's own reported queue+active). Caller holds
// s.mu.
func (s *Server) pickNodeLocked(now time.Time) *node {
	var best *node
	bestLoad := 0
	for _, n := range s.liveNodesLocked(now) {
		if n.mf.Stats.Draining || n.mf.Engine != serve.EngineVersion {
			continue
		}
		if now.Before(n.unavailableUntil) {
			continue
		}
		load := len(n.jobs) + n.mf.Stats.QueueDepth + n.mf.Stats.ActiveJobs
		if best == nil || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

// dispatch submits the coordinator job to a worker and attaches its
// watcher. The remote spec is the original submission with the design
// reconstructed from the CAS blob (uploads are stored once, not copied
// into every manifest) and any mirrored checkpoint embedded so a failover
// resumes mid-flow.
func (s *Server) dispatch(id, nodeID, nodeAddr string) error {
	t0 := time.Now()
	m, err := s.spool.ReadManifest(id)
	if err != nil {
		return err
	}
	if m.State.Terminal() { // canceled while pending
		return nil
	}
	spec := m.Spec
	if strings.HasPrefix(m.DesignDigest, "sha256-") && spec.Profile == "" && len(spec.Bookshelf) == 0 {
		blob, err := s.store.Blob(cas.Digest(m.DesignDigest))
		if err != nil {
			return fmt.Errorf("design blob %s: %w", m.DesignDigest, err)
		}
		files, err := cas.DecodeBookshelf(blob)
		if err != nil {
			return err
		}
		spec.Bookshelf = files
	}
	// A mirrored checkpoint (from a previous attempt on a dead worker)
	// seeds the new worker's spool so the flow resumes, not restarts.
	if ckpt, err := os.ReadFile(s.spool.CheckpointPath(id)); err == nil && len(ckpt) > 0 {
		spec.Checkpoint = ckpt
	}

	rt := s.jobRuntime(m)
	dspan := rt.span.Child("coord.dispatch")
	dspan.SetArg("node", nodeID)

	body, err := json.Marshal(spec)
	if err != nil {
		dspan.End()
		return err
	}
	req, err := http.NewRequestWithContext(s.baseCtx, http.MethodPost,
		nodeAddr+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		dspan.End()
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// The worker's tracer parents under the coordinator's dispatch span,
	// which itself carries the client's trace ID — one merged trace.
	if tc := dspan.TraceContext(); tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := s.client.Do(req)
	if err != nil {
		dspan.End()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if retry <= 0 {
			retry = 2
		}
		s.mu.Lock()
		if n, ok := s.nodes[nodeID]; ok {
			n.unavailableUntil = time.Now().Add(time.Duration(retry) * time.Second)
		}
		s.mu.Unlock()
		dspan.End()
		return fmt.Errorf("worker %s backpressured (Retry-After %ds)", nodeID, retry)
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		dspan.End()
		return fmt.Errorf("worker %s answered %d: %s", nodeID, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var remote serve.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&remote); err != nil {
		dspan.End()
		return fmt.Errorf("decode worker response: %w", err)
	}
	dspan.End()
	s.hDispatch.ObserveSince(t0)

	now := time.Now()
	updated, err := s.spool.Update(id, func(mm *serve.Manifest) error {
		mm.State = serve.StateRunning
		mm.Node = nodeID
		mm.NodeAddr = nodeAddr
		mm.RemoteID = remote.ID
		mm.Attempts++
		mm.StartedAt = &now
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	if n, ok := s.nodes[nodeID]; ok {
		n.jobs[id] = struct{}{}
	}
	s.mu.Unlock()
	s.reg.Counter("coord.jobs_dispatched_total").Inc()
	s.log.Info("job dispatched", "job", id, "node", nodeID, "remote", remote.ID, "attempt", updated.Attempts)
	s.attachWatcher(updated)
	return nil
}

// jobRuntime returns (creating if needed) the job's in-memory runtime.
// The tracer adopts the submission's traceparent so coordinator spans join
// the client's trace; the root span opens at submission time.
func (s *Server) jobRuntime(m *serve.Manifest) *coordJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := s.jobs[m.ID]
	if !ok {
		var tc obs.TraceContext
		if m.TraceParent != "" {
			tc, _ = obs.ParseTraceparent(m.TraceParent)
		}
		tracer := obs.NewTracerWith(tc)
		span := tracer.StartSpanAt("coord.job", m.SubmittedAt)
		span.SetArg("job", m.ID)
		rt = &coordJob{tracer: tracer, span: span}
		s.jobs[m.ID] = rt
	}
	return rt
}

// attachWatcher starts (or restarts) the job's remote watcher.
func (s *Server) attachWatcher(m *serve.Manifest) {
	rt := s.jobRuntime(m)
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	if rt.cancel != nil {
		rt.cancel()
	}
	rt.cancel = cancel
	s.mu.Unlock()
	s.wg.Add(1)
	go s.watch(ctx, m.ID)
}

// watchFailLimit is how many consecutive failed polls a watcher tolerates
// before treating the node as gone (backup for the heartbeat monitor —
// a node can heartbeat while its job API wedges).
const watchFailLimit = 5

// watch polls the job's remote manifest until it reaches a terminal
// state, mirroring progress into the coordinator spool:
//
//   - the remote Stage is copied, and on every stage advance the remote
//     checkpoint.json artifact is mirrored locally — the raw material for
//     failover re-admission on a different worker
//   - terminal states finalize the job (fetch result + artifacts, write
//     the merged trace, record the result in the CAS index)
//   - a poll failure streak hands the job to requeue (failover)
func (s *Server) watch(ctx context.Context, id string) {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.Poll)
	defer tick.Stop()
	fails := 0
	lastStage := ""
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		m, err := s.spool.ReadManifest(id)
		if err != nil || m.State.Terminal() {
			return
		}
		remote, err := s.fetchRemoteManifest(ctx, m)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fails++
			if fails >= watchFailLimit {
				s.log.Warn("worker unresponsive; failing job over", "job", id, "node", m.Node, "polls", fails)
				s.requeue(id, "watcher lost worker "+m.Node)
				return
			}
			continue
		}
		fails = 0
		if remote.Stage != "" && remote.Stage != lastStage {
			lastStage = remote.Stage
			// Best effort: without a mirror, failover falls back to a
			// cold rerun, which bit-determinism lands on the same result.
			s.fetchArtifact(ctx, m, "checkpoint.json")
			s.spool.Update(id, func(mm *serve.Manifest) error {
				mm.Stage = remote.Stage
				return nil
			})
		}
		switch {
		case remote.State == serve.StateDone:
			s.finalize(ctx, m, remote)
			return
		case remote.State == serve.StateFailed || remote.State == serve.StateCanceled:
			s.finish(m, remote.State, remote.Error, remote.Result, "")
			return
		case remote.State == serve.StateParked:
			// The worker is draining; its own next boot would resume the
			// job, but the fleet answer is to move it now.
			s.log.Info("worker parked job; failing over", "job", id, "node", m.Node)
			s.requeue(id, "worker "+m.Node+" draining")
			return
		}
	}
}

// fetchRemoteManifest reads the job's manifest from its worker.
func (s *Server) fetchRemoteManifest(ctx context.Context, m *serve.Manifest) (*serve.Manifest, error) {
	data, err := s.remoteGet(ctx, m, "")
	if err != nil {
		return nil, err
	}
	remote := &serve.Manifest{}
	if err := json.Unmarshal(data, remote); err != nil {
		return nil, err
	}
	return remote, nil
}

// remoteGet reads the job's worker-side resource at path (relative to
// the remote job URL).
func (s *Server) remoteGet(ctx context.Context, m *serve.Manifest, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		m.NodeAddr+"/api/v1/jobs/"+m.RemoteID+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker answered %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// requeue returns a dispatched job to its tenant queue for another
// worker. The mirrored checkpoint (if any) rides along on the next
// dispatch, so the job resumes from its last stage boundary.
func (s *Server) requeue(id, why string) {
	s.detachNode(id)
	m, err := s.spool.Update(id, func(mm *serve.Manifest) error {
		if mm.State.Terminal() {
			return fmt.Errorf("job %s already %s", id, mm.State)
		}
		mm.State = serve.StateQueued
		mm.Node = ""
		mm.NodeAddr = ""
		mm.RemoteID = ""
		mm.StartedAt = nil
		return nil
	})
	if err != nil {
		return
	}
	s.reg.Counter("coord.jobs_failed_over").Inc()
	s.log.Info("job requeued", "job", id, "reason", why, "stage", m.Stage)
	s.enqueue(m)
}

// detachNode removes the job from its node's in-flight set and cancels
// its watcher registration.
func (s *Server) detachNode(id string) {
	s.mu.Lock()
	for _, n := range s.nodes {
		delete(n.jobs, id)
	}
	s.mu.Unlock()
}

// finalize completes a job whose worker finished it: artifacts and the
// result are pulled into the coordinator spool (the worker may be
// ephemeral), the client→coordinator→worker trace is merged, the result
// is recorded in the CAS index, and the design ref is released.
func (s *Server) finalize(ctx context.Context, m *serve.Manifest, remote *serve.Manifest) {
	if remote.Result != nil {
		for _, name := range remote.Result.Artifacts {
			s.fetchArtifact(ctx, m, name)
		}
	}
	s.mergeTrace(m)

	// The result digest must land in the same manifest write as the
	// terminal state: clients poll for done and read the digest in the
	// same response, so a two-step write would expose a done job with an
	// empty digest.
	var rd cas.Digest
	if remote.Result != nil && m.DesignDigest != "" && m.ConfigDigest != "" {
		if canon, err := json.Marshal(canonicalResult(remote.Result)); err == nil {
			rd = cas.Sum(canon)
		}
	}
	s.finish(m, serve.StateDone, "", remote.Result, string(rd))

	if rd != "" {
		err := s.store.PutResult(cas.ResultEntry{
			Design:       cas.Digest(m.DesignDigest),
			Config:       cas.Digest(m.ConfigDigest),
			Engine:       serve.EngineVersion,
			Job:          m.ID,
			ResultDigest: rd,
			HPWL:         remote.Result.HPWL,
		})
		if err != nil {
			s.log.Warn("result cache record failed", "job", m.ID, "error", err)
		}
	}
}

// canonicalResult strips the wall-clock field from a result copy so the
// result digest covers only the deterministic payload — two runs of the
// same (design, config, engine) triple must hash identically even though
// their runtimes differ.
func canonicalResult(r *serve.JobResult) serve.JobResult {
	c := *r
	c.RuntimeMS = 0
	return c
}

// finish writes the terminal state (and result digest, when the job has
// one) in a single manifest update and tears down the job's runtime.
func (s *Server) finish(m *serve.Manifest, state serve.JobState, errMsg string, result *serve.JobResult, resultDigest string) {
	s.detachNode(m.ID)
	now := time.Now()
	s.spool.Update(m.ID, func(mm *serve.Manifest) error {
		mm.State = state
		mm.Error = errMsg
		mm.FinishedAt = &now
		mm.Result = result
		if resultDigest != "" {
			mm.ResultDigest = resultDigest
		}
		return nil
	})
	if m.DesignDigest != "" && strings.HasPrefix(m.DesignDigest, "sha256-") && len(m.Spec.Bookshelf) == 0 && m.Spec.Profile == "" {
		if err := s.store.Release(cas.Digest(m.DesignDigest)); err != nil {
			s.log.Warn("design blob release failed", "job", m.ID, "error", err)
		}
	}
	s.mu.Lock()
	rt := s.jobs[m.ID]
	if rt != nil && rt.cancel != nil {
		rt.cancel()
		rt.cancel = nil
	}
	s.mu.Unlock()
	switch state {
	case serve.StateDone:
		s.reg.Counter("coord.jobs_done").Inc()
	case serve.StateFailed:
		s.reg.Counter("coord.jobs_failed").Inc()
	case serve.StateCanceled:
		s.reg.Counter("coord.jobs_canceled").Inc()
	}
	s.log.Info("job finished", "job", m.ID, "state", state)
	s.publishGauges()
}

// fetchArtifact best-effort mirrors one remote artifact (a finished job's
// outputs, or a running job's latest checkpoint) into the coordinator's
// job dir.
func (s *Server) fetchArtifact(ctx context.Context, m *serve.Manifest, name string) {
	data, err := s.remoteGet(ctx, m, "/artifacts/"+name)
	if err != nil {
		return
	}
	if err := s.spool.WriteArtifact(m.ID, name, data); err != nil {
		s.log.Warn("artifact mirror failed", "job", m.ID, "artifact", name, "error", err)
	}
}

// mergeTrace ends the job's coordinator span and overwrites the mirrored
// trace.json with the coordinator + worker merge. MergeChromeTraces
// output is itself a valid trace part, so pufferctl's client-side merge
// composes on top — one trace ID from terminal to worker pipeline.
func (s *Server) mergeTrace(m *serve.Manifest) {
	s.mu.Lock()
	rt := s.jobs[m.ID]
	s.mu.Unlock()
	if rt == nil {
		return
	}
	rt.span.End()
	var coordPart bytes.Buffer
	if err := rt.tracer.WriteJSON(&coordPart); err != nil {
		return
	}
	path, err := s.spool.ArtifactPath(m.ID, "trace.json")
	if err != nil {
		return
	}
	parts := []obs.TracePart{{Process: "puffer-coordinator", Data: coordPart.Bytes()}}
	if workerTrace, err := os.ReadFile(path); err == nil && len(workerTrace) > 0 {
		parts = append(parts, obs.TracePart{Process: "pufferd-worker", Data: workerTrace})
	}
	var merged bytes.Buffer
	if err := obs.MergeChromeTraces(&merged, parts...); err != nil {
		return
	}
	if err := s.spool.WriteArtifact(m.ID, "trace.json", merged.Bytes()); err != nil {
		s.log.Warn("trace merge write failed", "job", m.ID, "error", err)
	}
}

// monitorLoop watches heartbeat ages: jobs on a node that stopped
// heartbeating fail over without waiting for their watchers' poll-failure
// streaks (the watcher path still exists for nodes that heartbeat but
// wedge their job API).
func (s *Server) monitorLoop() {
	defer s.wg.Done()
	interval := s.cfg.DeadAfter / 4
	if interval < 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
		}
		now := time.Now()
		var orphans []string
		s.mu.Lock()
		for _, n := range s.nodes {
			age := now.Sub(n.lastSeen)
			s.hHeartbeat.Observe(age.Seconds())
			if age > s.cfg.DeadAfter && len(n.jobs) > 0 {
				s.log.Warn("node heartbeat expired", "node", n.mf.ID,
					"age", age.Round(time.Millisecond), "jobs", len(n.jobs))
				for id := range n.jobs {
					orphans = append(orphans, id)
				}
				n.jobs = make(map[string]struct{})
			}
		}
		s.mu.Unlock()
		for _, id := range orphans {
			s.requeue(id, "node heartbeat expired")
		}
		s.publishGauges()
	}
}
