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

	"puffer/internal/fsx"
	"puffer/pipeline"
)

// Spool is the daemon's on-disk job store. Layout under the root:
//
//	jobs/<id>/manifest.json    durable job record (atomic rewrite per transition)
//	jobs/<id>/design/          uploaded Bookshelf files, verbatim
//	jobs/<id>/checkpoint.json  latest stage-boundary pipeline checkpoint
//	jobs/<id>/report.json      structured run report (done place jobs)
//	jobs/<id>/trace.json       Chrome trace-event JSON
//	jobs/<id>/metrics.jsonl    streamed metric samples
//	jobs/<id>/strategy.json    tuned strategy (done explore jobs)
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
func (sp *Spool) JobDir(id string) string { return filepath.Join(sp.root, "jobs", id) }

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

// CreateJob allocates a job directory for spec, writes the uploaded design
// files (if any), and persists the initial queued manifest.
func (sp *Spool) CreateJob(m *Manifest) error {
	dir := sp.JobDir(m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: create job dir: %w", err)
	}
	if len(m.Spec.Bookshelf) > 0 {
		ddir := filepath.Join(dir, "design")
		if err := os.MkdirAll(ddir, 0o755); err != nil {
			return err
		}
		for name, content := range m.Spec.Bookshelf {
			if err := os.WriteFile(filepath.Join(ddir, name), []byte(content), 0o644); err != nil {
				return fmt.Errorf("serve: write design file %s: %w", name, err)
			}
		}
	}
	if len(m.Spec.Checkpoint) > 0 {
		// Seed the spooled checkpoint so the first run resumes mid-flow —
		// exactly the file a parked job of this daemon would have left.
		// The document was validated at submission; its stage gates how
		// much of the flow is skipped.
		cp := &pipeline.Checkpoint{}
		if err := json.Unmarshal(m.Spec.Checkpoint, cp); err != nil {
			return fmt.Errorf("serve: seed checkpoint: %w", err)
		}
		if err := cp.Save(sp.CheckpointPath(m.ID)); err != nil {
			return fmt.Errorf("serve: seed checkpoint: %w", err)
		}
		if m.Stage == "" {
			m.Stage = cp.Stage
		}
	}
	return sp.WriteManifest(m)
}

// AuxPath returns the path of the job's uploaded .aux file ("" for
// profile jobs).
func (sp *Spool) AuxPath(m *Manifest) string {
	aux := m.Spec.AuxName()
	if aux == "" {
		return ""
	}
	return filepath.Join(sp.JobDir(m.ID), "design", aux)
}

// WriteManifest persists m atomically.
func (sp *Spool) WriteManifest(m *Manifest) error {
	m.Format = ManifestFormat
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode manifest: %w", err)
	}
	return atomicWriteFile(filepath.Join(sp.JobDir(m.ID), "manifest.json"), append(data, '\n'))
}

// ReadManifest loads one job's manifest.
func (sp *Spool) ReadManifest(id string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(sp.JobDir(id), "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("serve: decode manifest for job %s: %w", id, err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("serve: job %s: manifest format %q, want %q", id, m.Format, ManifestFormat)
	}
	return m, nil
}

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
	sp.mu.Lock()
	defer sp.mu.Unlock()
	m, err := sp.ReadManifest(id)
	if err != nil {
		return nil, err
	}
	if err := fn(m); err != nil {
		return m, err
	}
	if err := sp.WriteManifest(m); err != nil {
		return m, err
	}
	return m, nil
}

// List returns every job manifest in the spool, oldest submission first.
// Jobs whose manifests are unreadable (foreign files, interrupted
// pre-hardening writes) are skipped.
func (sp *Spool) List() ([]*Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(sp.root, "jobs"))
	if err != nil {
		return nil, err
	}
	out := make([]*Manifest, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := sp.ReadManifest(e.Name())
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

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

// atomicWriteFile writes data via temp file + rename in path's directory.
func atomicWriteFile(path string, data []byte) error {
	return fsx.AtomicWriteFile(path, data)
}
