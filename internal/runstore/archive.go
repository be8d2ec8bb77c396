package runstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"branchscope/internal/durable"
)

// kindPolicy fixes each artifact kind's archived name, whether its
// content is identity-stable, and how to digest it.
type kindPolicy struct {
	name string
	// volatile content legitimately differs between equivalent runs:
	// wall clocks (metrics, markdown), live last-writer-wins slots
	// (leakage, introspect under -parallel), append-mode accumulation
	// (the ledger), or simulated timelines that a resume truncates
	// (the trace).
	volatile bool
	// digest overrides the raw-bytes digest for artifacts whose
	// on-disk order is scheduling-dependent but whose records are not.
	digest func(path string) (string, error)
}

var kindPolicies = map[string]kindPolicy{
	"report":     {name: "report.txt"},
	"export":     {name: "export.json"},
	"journal":    {name: "journal.jsonl", digest: CanonicalJournalDigest},
	"ledger":     {name: "ledger.jsonl", volatile: true},
	"metrics":    {name: "metrics.json", volatile: true},
	"trace":      {name: "trace.json", volatile: true},
	"leakage":    {name: "leakage.json", volatile: true},
	"introspect": {name: "introspect.json", volatile: true},
	"md":         {name: "results.md", volatile: true},
}

// Archiver accumulates a run's outcomes and artifacts and writes the
// archive directory at the end. All methods are safe for concurrent
// use (runner hooks record outcomes from worker goroutines) and no-ops
// on a nil archiver, matching the repo's nil-safe sink idiom.
type Archiver struct {
	dir string
	id  Identity

	mu       sync.Mutex
	outcomes []TaskOutcome
	breakers []BreakerSummary
	files    []pendingFile
	blobs    []pendingBlob
}

type pendingFile struct {
	kind string
	src  string
}

type pendingBlob struct {
	kind string
	data []byte
}

// New returns an archiver writing under dir (the -archive directory;
// the run's own subdirectory is derived from the identity's RunID).
func New(dir string, id Identity) *Archiver {
	return &Archiver{dir: dir, id: id}
}

// RunID returns the archiver's run identifier ("" on nil).
func (a *Archiver) RunID() string {
	if a == nil {
		return ""
	}
	return a.id.RunID()
}

// Record adds one task's settled outcome.
func (a *Archiver) Record(o TaskOutcome) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.outcomes = append(a.outcomes, o)
	a.mu.Unlock()
}

// SetBreakers records tripped circuit breakers for the manifest.
func (a *Archiver) SetBreakers(bs []BreakerSummary) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.breakers = bs
	a.mu.Unlock()
}

// AddFile schedules a sink file for archiving under kind's policy. An
// empty path is ignored, so callers can pass flag values unguarded; an
// unknown kind is a programming error surfaced at Write.
func (a *Archiver) AddFile(kind, src string) {
	if a == nil || src == "" {
		return
	}
	a.mu.Lock()
	a.files = append(a.files, pendingFile{kind: kind, src: src})
	a.mu.Unlock()
}

// AddBlob schedules archiver-rendered content (the canonical report
// text, the canonical JSON export) under kind's policy.
func (a *Archiver) AddBlob(kind string, data []byte) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.blobs = append(a.blobs, pendingBlob{kind: kind, data: data})
	a.mu.Unlock()
}

// Write materializes the archive: it creates <dir>/<run-id>/, copies
// every scheduled file, writes every blob, and writes the manifest
// last via temp-file+rename — a run directory with a manifest is
// complete by construction. Returns the run directory.
func (a *Archiver) Write() (string, error) {
	if a == nil {
		return "", nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	m := NewManifest(a.id, a.outcomes)
	m.Breakers = a.breakers

	runDir := filepath.Join(a.dir, m.RunID)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return "", fmt.Errorf("runstore: creating archive: %w", err)
	}

	for _, b := range a.blobs {
		pol, ok := kindPolicies[b.kind]
		if !ok {
			return "", fmt.Errorf("runstore: unknown artifact kind %q", b.kind)
		}
		if err := os.WriteFile(filepath.Join(runDir, pol.name), b.data, 0o644); err != nil {
			return "", fmt.Errorf("runstore: archiving %s: %w", pol.name, err)
		}
		art := Artifact{Kind: b.kind, Name: pol.name, Volatile: pol.volatile}
		if !pol.volatile {
			art.Digest = DigestBytes(b.data)
		}
		m.Artifacts = append(m.Artifacts, art)
	}
	for _, f := range a.files {
		pol, ok := kindPolicies[f.kind]
		if !ok {
			return "", fmt.Errorf("runstore: unknown artifact kind %q", f.kind)
		}
		if err := copyFile(f.src, filepath.Join(runDir, pol.name)); err != nil {
			return "", fmt.Errorf("runstore: archiving %s: %w", pol.name, err)
		}
		art := Artifact{Kind: f.kind, Name: pol.name, Volatile: pol.volatile}
		switch {
		case pol.digest != nil:
			d, err := pol.digest(f.src)
			if err != nil {
				return "", fmt.Errorf("runstore: digesting %s: %w", pol.name, err)
			}
			art.Digest = d
		case !pol.volatile:
			d, err := DigestFile(f.src)
			if err != nil {
				return "", fmt.Errorf("runstore: digesting %s: %w", pol.name, err)
			}
			art.Digest = d
		}
		m.Artifacts = append(m.Artifacts, art)
	}
	sort.Slice(m.Artifacts, func(i, j int) bool { return m.Artifacts[i].Name < m.Artifacts[j].Name })

	if err := writeManifestAtomic(filepath.Join(runDir, ManifestName), m); err != nil {
		return "", err
	}
	return runDir, nil
}

// writeManifestAtomic publishes the manifest via temp-file+rename
// (durable.WriteAtomic), so a run directory either has a complete
// manifest or none.
func writeManifestAtomic(path string, m Manifest) error {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		return err
	}
	if err := durable.WriteAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("runstore: publishing manifest: %w", err)
	}
	return nil
}

// copyFile copies src to dst, truncating dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
