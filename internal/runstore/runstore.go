// Package runstore gives every run a durable, causal identity and an
// on-disk archive to hang its artifacts on. BranchScope's evaluation is
// comparative — error rates across probe variants, CPUs, noise levels
// and mitigations (§5–§7) — so "did this change regress the channel?"
// needs two runs to be *joinable*: same identity means same expected
// bytes, and any divergence is a finding, not noise.
//
// The identity is a RunID: a hash of the manifest schema, the base
// seed, the invocation family (program + ordered task list + scale) and
// a digest of the result-shaping configuration. Flags that only change
// *how* a run executes — `-parallel`, `-checkpoint`/`-resume`,
// `-watchdog`, the fabric flags (`-coordinator`/`-workers`/`-worker`),
// output paths — are deliberately excluded, so a run resumed after a
// crash, re-run at a different `-parallel` width, or distributed
// across a worker pool archives under the same RunID with a
// byte-identical manifest. That makes the
// archive a regression oracle: CI runs a suite twice and `bsctl diff`
// must come back empty.
//
// A run's archive is a directory `<archive>/<run-id>/` holding a
// `branchscope.run/v1` manifest plus copies of every sink the run
// produced (ledger, journal, leakage report, metrics, ...) and two
// artifacts the archiver renders itself: the canonical report text and
// the canonical JSON export (wall times zeroed). Artifacts whose bytes
// are deterministic per identity carry a content digest in the
// manifest; artifacts that legitimately vary between equivalent runs
// (wall clocks, last-writer-wins live slots, append-mode ledgers) are
// marked volatile and carry none, keeping the manifest itself
// byte-identical. The manifest is written last, via temp-file+rename
// like the campaign journal, so an archive directory either holds a
// complete run or no manifest at all.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"branchscope/internal/campaign"
)

// Schema versions the run manifest; bump on incompatible change.
const Schema = "branchscope.run/v1"

// ManifestName is the manifest's file name inside a run directory.
const ManifestName = "manifest.json"

// Identity is the causal identity of a run: everything that shapes the
// deterministic result bytes, and nothing that merely shapes execution.
// Config values must be plain JSON types (strings, bools, numbers) so
// the identity survives a marshal round trip unchanged.
type Identity struct {
	Program  string `json:"program"`
	BaseSeed uint64 `json:"base_seed"`
	Quick    bool   `json:"quick"`
	// Tasks is the ordered task-ID list — the invocation family. A
	// different selection or order is a different run.
	Tasks []string `json:"tasks"`
	// Config carries the result-shaping flags (chaos plan, retry
	// budget, timeout, experiment-specific knobs). Execution-shape
	// flags (-parallel, -checkpoint, -resume, -watchdog, the fabric
	// flags -coordinator/-workers/-worker, sink paths)
	// must never appear here: the RunID is the contract that they
	// cannot change the result.
	Config map[string]any `json:"config"`
}

// RunID derives the deterministic run identifier: "bsr-" plus the
// first 16 hex digits of SHA-256 over the schema string and the
// identity's canonical JSON. Stable across -parallel and -resume by
// construction (neither appears in the identity), and stable across a
// manifest round trip (Go marshals maps with sorted keys and floats in
// shortest form, so re-marshaling loaded config reproduces the bytes).
func (id Identity) RunID() string {
	if id.Tasks == nil {
		id.Tasks = []string{}
	}
	if id.Config == nil {
		id.Config = map[string]any{}
	}
	payload := struct {
		Schema string `json:"schema"`
		Identity
	}{Schema: Schema, Identity: id}
	b, err := json.Marshal(payload)
	if err != nil {
		// Config broke the plain-JSON-types contract; a panic here is a
		// programming error in the caller, not a runtime condition.
		panic(fmt.Sprintf("runstore: identity not marshalable: %v", err))
	}
	sum := sha256.Sum256(b)
	return "bsr-" + hex.EncodeToString(sum[:8])
}

// TaskOutcome is one task's settled state in a manifest.
type TaskOutcome struct {
	ID   string `json:"id"`
	Seed uint64 `json:"seed"`
	// Outcome is how the task settled (engine.Report.Outcome): a
	// replayed task keeps the outcome its record holds, so resumed and
	// merged runs archive identically.
	Outcome  string `json:"outcome"`
	Attempts int    `json:"attempts,omitempty"`
	// Error is the failure's first line (panic stacks and wrapped
	// detail carry addresses and goroutine IDs that would break the
	// manifest's byte-identity).
	Error string `json:"error,omitempty"`
}

// Artifact is one archived file in a manifest.
type Artifact struct {
	// Kind names the sink ("report", "export", "journal", "ledger",
	// "metrics", "trace", "leakage", "introspect").
	Kind string `json:"kind"`
	// Name is the file's name inside the run directory.
	Name string `json:"name"`
	// Digest is "sha256:<hex>" over the artifact's identity-stable
	// content: raw bytes for deterministic artifacts, record-sorted
	// bytes for the journal. Empty for volatile artifacts.
	Digest string `json:"digest,omitempty"`
	// Volatile marks content that legitimately differs between runs of
	// the same identity (wall clocks, live last-writer-wins slots,
	// append-mode accumulation); bsctl diff skips it by default.
	Volatile bool `json:"volatile,omitempty"`
}

// BreakerSummary mirrors one tripped circuit breaker for the manifest.
// Like obs's status shapes it duplicates the engine's form instead of
// importing it, keeping runstore's dependency surface small.
type BreakerSummary struct {
	Family  string `json:"family"`
	State   string `json:"state"`
	Skipped int    `json:"skipped"`
}

// Manifest is the branchscope.run/v1 document: the run's identity, its
// settled outcomes, and every artifact it archived. Everything in it is
// deterministic per identity — no wall clocks, no timestamps, no
// volatile digests — which is what lets CI compare manifests with cmp.
type Manifest struct {
	Schema   string   `json:"schema"`
	RunID    string   `json:"run_id"`
	Identity Identity `json:"identity"`
	// Counts aggregates outcomes ("ok": 9, ...). Maps
	// marshal with sorted keys, so the rendering is stable.
	Counts map[string]int `json:"counts"`
	// Outcomes lists every task's settled state, sorted by task ID.
	Outcomes []TaskOutcome `json:"outcomes"`
	// Breakers lists families whose circuit breaker tripped (normally
	// empty; a tripping breaker is itself a deterministic result of
	// the identity at -parallel 1, and a finding worth diffing at all).
	Breakers []BreakerSummary `json:"breakers,omitempty"`
	// Artifacts lists the archived files, sorted by name.
	Artifacts []Artifact `json:"artifacts"`
}

// NewManifest assembles a manifest from an identity and settled
// outcomes: error text truncated to its first line, the list sorted by
// ID, and counts aggregated.
func NewManifest(id Identity, outcomes []TaskOutcome) Manifest {
	m := Manifest{
		Schema:   Schema,
		RunID:    id.RunID(),
		Identity: id,
		Counts:   make(map[string]int, 4),
		Outcomes: make([]TaskOutcome, 0, len(outcomes)),
	}
	for _, o := range outcomes {
		if i := strings.IndexByte(o.Error, '\n'); i >= 0 {
			o.Error = o.Error[:i]
		}
		m.Counts[o.Outcome]++
		m.Outcomes = append(m.Outcomes, o)
	}
	sort.Slice(m.Outcomes, func(i, j int) bool { return m.Outcomes[i].ID < m.Outcomes[j].ID })
	return m
}

// WriteManifest renders m as the canonical indented JSON document.
func WriteManifest(w io.Writer, m Manifest) error {
	if m.Schema == "" {
		m.Schema = Schema
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: encoding manifest: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadManifest parses and schema-checks a manifest document.
func ReadManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("runstore: parsing manifest: %w", err)
	}
	if m.Schema != Schema {
		return Manifest{}, fmt.Errorf("runstore: manifest schema %q, want %q", m.Schema, Schema)
	}
	return m, nil
}

// LoadRun resolves path — a run directory or a manifest file — to the
// run directory and its parsed manifest.
func LoadRun(path string) (dir string, m Manifest, err error) {
	dir = path
	file := filepath.Join(path, ManifestName)
	if fi, statErr := os.Stat(path); statErr == nil && !fi.IsDir() {
		file = path
		dir = filepath.Dir(path)
	}
	f, err := os.Open(file)
	if err != nil {
		return "", Manifest{}, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	m, err = ReadManifest(f)
	if err != nil {
		return "", Manifest{}, fmt.Errorf("runstore: %s: %w", file, err)
	}
	return dir, m, nil
}

// List returns every archived run under dir (direct children holding a
// manifest), sorted by RunID. Children without a manifest — interrupted
// archives, unrelated files — are skipped, not errors.
func List(dir string) ([]Manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		// A missing archive directory means no runs have been archived
		// yet — the live /runs endpoint hits this before the first
		// session closes — not a failure.
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var runs []Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		_, m, err := LoadRun(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		runs = append(runs, m)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].RunID < runs[j].RunID })
	return runs, nil
}

// DigestBytes fingerprints content as "sha256:<hex>".
func DigestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// DigestFile fingerprints a file's raw bytes.
func DigestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// CanonicalJournalDigest fingerprints a campaign journal's
// identity-stable content: the header plus every task record re-framed
// in task-ID order. Record order on disk is completion order —
// scheduling-dependent, and reshuffled by a resume compaction — but the
// records themselves are deterministic, so sorting recovers a digest
// that is equal for an uninterrupted run and a crashed-and-resumed one.
func CanonicalJournalDigest(path string) (string, error) {
	h, recs, _, err := campaign.Load(path)
	if err != nil {
		return "", err
	}
	// A journal from a resumed run holds the same records as an
	// uninterrupted one; only order differs. Outcomes inside records
	// are already original ("ok"/"retried-ok"), never "replayed".
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	hash := sha256.New()
	hb, err := json.Marshal(h)
	if err != nil {
		return "", err
	}
	hash.Write(hb)
	hash.Write([]byte{'\n'})
	for _, rec := range recs {
		rb, err := json.Marshal(rec)
		if err != nil {
			return "", err
		}
		hash.Write(rb)
		hash.Write([]byte{'\n'})
	}
	return "sha256:" + hex.EncodeToString(hash.Sum(nil)), nil
}
