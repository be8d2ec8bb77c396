package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The journal's CRC-framed line format doubles as the fabric wire
// format (see internal/fabric): a worker streams each finished task
// back to its coordinator as exactly the line a local campaign would
// have journaled, so a bit flip on the wire is caught by the same
// checksum that catches a bit flip on disk, and the coordinator can
// append received lines to its own journal without re-encoding. The
// job service journal (internal/svc) stores its records in the same
// frames through the same Appender and WriteAtomic.

// Frame renders one CRC-framed JSONL line for a payload under the
// given kind key ("header", "task", or a fabric wire kind). The
// checksum covers the exact payload bytes a reader will see.
func Frame(kind string, payload any) ([]byte, error) { return frame(kind, payload) }

// ParseFrame decodes and checksum-verifies one framed line of any
// kind, returning the kind key and its raw payload. Unlike the journal
// loader it accepts kinds beyond header/task — the fabric wire streams
// lease-renewal frames through the same framing.
func ParseFrame(line []byte) (kind string, payload json.RawMessage, err error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		return "", nil, fmt.Errorf("campaign: frame: %w", err)
	}
	sumRaw, ok := fields["sum"]
	if !ok {
		return "", nil, fmt.Errorf("campaign: frame has no checksum")
	}
	var sum string
	if err := json.Unmarshal(sumRaw, &sum); err != nil {
		return "", nil, fmt.Errorf("campaign: frame checksum: %w", err)
	}
	for k, v := range fields {
		if k == "sum" {
			continue
		}
		if kind != "" {
			return "", nil, fmt.Errorf("campaign: frame carries both %q and %q", kind, k)
		}
		kind, payload = k, v
	}
	if kind == "" {
		return "", nil, fmt.Errorf("campaign: frame has no payload")
	}
	if got := checksum(payload); got != sum {
		return "", nil, fmt.Errorf("campaign: frame %s: checksum %s, recorded %s", kind, got, sum)
	}
	return kind, payload, nil
}

// Appender appends CRC-framed records to a file, fsyncing each one
// before Append returns, so a crash right after cannot lose a record
// its writer already reported. Appends are mutex-serialized. The nil
// Appender drops records: a service without a journal runs in memory.
type Appender struct {
	mu       sync.Mutex
	f        *os.File
	appended int
}

// OpenAppender opens an existing framed file for appending.
func OpenAppender(path string) (*Appender, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: opening %s for append: %w", path, err)
	}
	return &Appender{f: f}, nil
}

// Append frames payload under kind, writes it and fsyncs. It returns
// how many records this Appender has appended — a campaign's crash
// point counts fresh outcomes with it.
func (a *Appender) Append(kind string, payload any) (int, error) {
	if a == nil {
		return 0, nil
	}
	line, err := frame(kind, payload)
	if err != nil {
		return 0, fmt.Errorf("campaign: encoding %s record: %w", kind, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.f.Write(line); err != nil {
		return a.appended, fmt.Errorf("campaign: appending %s record: %w", kind, err)
	}
	if err := a.f.Sync(); err != nil {
		return a.appended, fmt.Errorf("campaign: syncing %s: %w", a.f.Name(), err)
	}
	a.appended++
	return a.appended, nil
}

// Close closes the file. Nil-safe.
func (a *Appender) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Close()
}

// WriteAtomic writes data to path via a sibling temp file, fsync and
// rename, so path holds either the complete new content or its old
// one — never a torn mix. Journals are created and compacted this way,
// and run manifests published.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
