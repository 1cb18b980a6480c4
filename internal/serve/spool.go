package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"puffer/internal/fsx"
	"puffer/pipeline"
)

// Spool is the daemon's on-disk job and session store. Layout under the
// root:
//
//	jobs/<id>/manifest.json    durable job record (atomic rewrite per transition)
//	jobs/<id>/design/          uploaded Bookshelf files, verbatim
//	jobs/<id>/checkpoint.json  latest stage-boundary pipeline checkpoint
//	jobs/<id>/report.json      structured run report (done place jobs)
//	jobs/<id>/trace.json       Chrome trace-event JSON
//	jobs/<id>/metrics.jsonl    streamed metric samples
//	jobs/<id>/strategy.json    tuned strategy (done explore jobs)
//	sessions/<id>/manifest.json  durable ECO session record
//	sessions/<id>/snapshot.json  warm state after the last completed delta
//	sessions/<id>/design/, trace.json, metrics.jsonl  as for jobs
//
// Both kinds share one record store (recordStore); recovery keeps its
// per-kind state rules (Recover, RecoverSessions).
//
// Every manifest and checkpoint write goes through a temp file + rename,
// so a daemon killed mid-write leaves either the previous or the next
// complete document — never a truncated one. Recovery only trusts
// manifests; anything else is an artifact it can live without.
type Spool struct {
	root string

	mu sync.Mutex // serializes manifest read-modify-write cycles
}

// OpenSpool creates (if necessary) and opens a spool rooted at dir.
func OpenSpool(dir string) (*Spool, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: spool directory must be set")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: open spool: %w", err)
	}
	return &Spool{root: dir}, nil
}

// Root returns the spool's root directory.
func (sp *Spool) Root() string { return sp.root }

// JobDir returns the directory of one job.
func (sp *Spool) JobDir(id string) string { return jobRecords.path(sp, id) }

// CheckpointPath returns the job's pipeline checkpoint path.
func (sp *Spool) CheckpointPath(id string) string {
	return filepath.Join(sp.JobDir(id), "checkpoint.json")
}

// ArtifactPath resolves a named artifact inside the job directory,
// rejecting names that would escape it.
func (sp *Spool) ArtifactPath(id, name string) (string, error) {
	if name == "" || strings.Contains(name, "/") || strings.Contains(name, "\\") || strings.Contains(name, "..") {
		return "", fmt.Errorf("serve: bad artifact name %q", name)
	}
	return filepath.Join(sp.JobDir(id), name), nil
}

// WriteArtifact atomically writes a named artifact into the job's
// directory (the fleet coordinator mirrors worker artifacts through it).
func (sp *Spool) WriteArtifact(id, name string, data []byte) error {
	path, err := sp.ArtifactPath(id, name)
	if err != nil {
		return err
	}
	return atomicWriteFile(path, data)
}

// NewJobID returns a fresh 12-hex-digit job ID (exported for the fleet
// coordinator, whose job records share the spool's manifest format).
func NewJobID() string { return newJobID() }

// newJobID returns a fresh 12-hex-digit job ID.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: crypto/rand unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// recordPtr is a spooled manifest type (*Manifest, *SessionManifest): the
// store stamps its format and orders it by ID and creation time.
type recordPtr[T any] interface {
	*T
	spoolHead() (format *string, id string, created time.Time)
}

// recordStore is the on-disk store of one record kind: manifests under
// <root>/<dir>/<id>/manifest.json carrying the kind's format string.
type recordStore[T any, P recordPtr[T]] struct {
	dir    string // "jobs" or "sessions"
	format string
	noun   string // "job" or "session", for messages
}

var (
	jobRecords     = recordStore[Manifest, *Manifest]{dir: "jobs", format: ManifestFormat, noun: "job"}
	sessionRecords = recordStore[SessionManifest, *SessionManifest]{dir: "sessions", format: SessionManifestFormat, noun: "session"}
)

func (m *Manifest) spoolHead() (*string, string, time.Time) { return &m.Format, m.ID, m.SubmittedAt }

func (m *SessionManifest) spoolHead() (*string, string, time.Time) {
	return &m.Format, m.ID, m.OpenedAt
}

// path returns the directory of one record.
func (k recordStore[T, P]) path(sp *Spool, id string) string {
	return filepath.Join(sp.root, k.dir, id)
}

// create allocates the record's directory, writes the uploaded design
// files (if any) under design/, and persists the initial manifest.
func (k recordStore[T, P]) create(sp *Spool, m P, bookshelf map[string]string) error {
	_, id, _ := m.spoolHead()
	dir := k.path(sp, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: create %s dir: %w", k.noun, err)
	}
	if len(bookshelf) > 0 {
		ddir := filepath.Join(dir, "design")
		if err := os.MkdirAll(ddir, 0o755); err != nil {
			return err
		}
		for name, content := range bookshelf {
			if err := os.WriteFile(filepath.Join(ddir, name), []byte(content), 0o644); err != nil {
				return fmt.Errorf("serve: write design file %s: %w", name, err)
			}
		}
	}
	return k.write(sp, m)
}

// write persists m atomically.
func (k recordStore[T, P]) write(sp *Spool, m P) error {
	format, id, _ := m.spoolHead()
	*format = k.format
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode %s manifest: %w", k.noun, err)
	}
	return atomicWriteFile(filepath.Join(k.path(sp, id), "manifest.json"), append(data, '\n'))
}

// read loads one record's manifest, rejecting foreign formats.
func (k recordStore[T, P]) read(sp *Spool, id string) (P, error) {
	data, err := os.ReadFile(filepath.Join(k.path(sp, id), "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := P(new(T))
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("serve: decode manifest for %s %s: %w", k.noun, id, err)
	}
	if format, _, _ := m.spoolHead(); *format != k.format {
		return nil, fmt.Errorf("serve: %s %s: manifest format %q, want %q", k.noun, id, *format, k.format)
	}
	return m, nil
}

// update applies fn to the record's manifest under the spool lock and
// persists the result — the one safe way to make a state transition. An
// error from fn leaves the manifest as it was.
func (k recordStore[T, P]) update(sp *Spool, id string, fn func(P) error) (P, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	m, err := k.read(sp, id)
	if err != nil {
		return nil, err
	}
	if err := fn(m); err != nil {
		return m, err
	}
	if err := k.write(sp, m); err != nil {
		return m, err
	}
	return m, nil
}

// list returns every record of the kind, oldest first with an ID
// tiebreak (stable across boots). Unreadable manifests (foreign files,
// interrupted pre-hardening writes) are skipped.
func (k recordStore[T, P]) list(sp *Spool) ([]P, error) {
	entries, err := os.ReadDir(filepath.Join(sp.root, k.dir))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	out := make([]P, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if m, err := k.read(sp, e.Name()); err == nil {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		_, a, at := out[i].spoolHead()
		_, b, bt := out[j].spoolHead()
		if !at.Equal(bt) {
			return at.Before(bt)
		}
		return a < b
	})
	return out, nil
}

// CreateJob allocates a job directory, seeds the submitted checkpoint (if
// any), writes the uploaded design files, and persists the initial queued
// manifest.
func (sp *Spool) CreateJob(m *Manifest) error {
	if len(m.Spec.Checkpoint) > 0 {
		// Seed the spooled checkpoint so the first run resumes mid-flow —
		// exactly the file a parked job of this daemon would have left.
		// The document was validated at submission; its stage gates how
		// much of the flow is skipped.
		cp := &pipeline.Checkpoint{}
		if err := json.Unmarshal(m.Spec.Checkpoint, cp); err != nil {
			return fmt.Errorf("serve: seed checkpoint: %w", err)
		}
		if err := os.MkdirAll(sp.JobDir(m.ID), 0o755); err != nil {
			return fmt.Errorf("serve: create job dir: %w", err)
		}
		if err := cp.Save(sp.CheckpointPath(m.ID)); err != nil {
			return fmt.Errorf("serve: seed checkpoint: %w", err)
		}
		if m.Stage == "" {
			m.Stage = cp.Stage
		}
	}
	return jobRecords.create(sp, m, m.Spec.Bookshelf)
}

// WriteManifest persists m atomically.
func (sp *Spool) WriteManifest(m *Manifest) error { return jobRecords.write(sp, m) }

// ReadManifest loads one job's manifest.
func (sp *Spool) ReadManifest(id string) (*Manifest, error) { return jobRecords.read(sp, id) }

// Origin returns the manifest of the job that computed m's result: the
// origin of a cache hit when it is still readable, m itself otherwise.
func (sp *Spool) Origin(m *Manifest) *Manifest {
	if m.CacheHit && m.Origin != "" {
		if origin, err := sp.ReadManifest(m.Origin); err == nil {
			return origin
		}
	}
	return m
}

// Update applies fn to the job's manifest under the spool lock and
// persists the result — the one safe way to make a state transition.
func (sp *Spool) Update(id string, fn func(*Manifest) error) (*Manifest, error) {
	return jobRecords.update(sp, id, fn)
}

// List returns every job manifest in the spool, oldest submission first.
func (sp *Spool) List() ([]*Manifest, error) { return jobRecords.list(sp) }

// Recover returns the jobs a booting daemon must re-admit, oldest first:
// queued ones (never started), parked ones (gracefully drained), and
// running ones (the previous daemon crashed mid-job). Parked and crashed
// jobs are counted as a new attempt and resume from their spooled
// checkpoint if one exists.
func (sp *Spool) Recover() ([]*Manifest, error) {
	all, err := sp.List()
	if err != nil {
		return nil, err
	}
	var out []*Manifest
	for _, m := range all {
		switch m.State {
		case StateQueued, StateParked, StateRunning:
			if _, err := sp.Update(m.ID, func(mm *Manifest) error {
				mm.State = StateQueued
				mm.StartedAt = nil
				return nil
			}); err != nil {
				return nil, err
			}
			m.State = StateQueued
			out = append(out, m)
		}
	}
	return out, nil
}

// SessionDir returns the directory of one session.
func (sp *Spool) SessionDir(id string) string { return sessionRecords.path(sp, id) }

// SessionSnapshotPath returns the session's eco snapshot path.
func (sp *Spool) SessionSnapshotPath(id string) string {
	return filepath.Join(sp.SessionDir(id), "snapshot.json")
}

// WriteSessionManifest persists m atomically.
func (sp *Spool) WriteSessionManifest(m *SessionManifest) error { return sessionRecords.write(sp, m) }

// ReadSessionManifest loads one session's manifest.
func (sp *Spool) ReadSessionManifest(id string) (*SessionManifest, error) {
	return sessionRecords.read(sp, id)
}

// UpdateSession applies fn to the session's manifest under the spool lock
// and persists the result.
func (sp *Spool) UpdateSession(id string, fn func(*SessionManifest) error) (*SessionManifest, error) {
	return sessionRecords.update(sp, id, fn)
}

// RecoverSessions marks the sessions a booting daemon inherits: sessions
// still opening when the previous daemon died have no snapshot and fail;
// open or parked ones park (the next delta rehydrates them from the
// spooled snapshot).
func (sp *Spool) RecoverSessions() (parked, failed []*SessionManifest, err error) {
	all, err := sessionRecords.list(sp)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range all {
		if m.State.Terminal() {
			continue
		}
		um, err := sp.UpdateSession(m.ID, func(mm *SessionManifest) error {
			if mm.State == SessionOpening {
				mm.State = SessionFailed
				mm.Error = "daemon restarted before the base placement finished"
			} else {
				mm.State = SessionParked
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if um.State == SessionFailed {
			failed = append(failed, um)
		} else {
			parked = append(parked, um)
		}
	}
	return parked, failed, nil
}

// atomicWriteFile writes data via temp file + rename in path's directory.
func atomicWriteFile(path string, data []byte) error {
	return fsx.AtomicWriteFile(path, data)
}
