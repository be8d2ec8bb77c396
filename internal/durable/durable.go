// Package durable holds the crash-safety rules shared by the repo's
// append-only line files — the campaign journal
// (branchscope.campaign/v1), the job-service journal
// (branchscope.svc/v1) and the provenance ledger
// (branchscope.ledger/v1) — and by the fabric's record stream, so each
// rule is decided in one place:
//
//   - Frame and ParseFrame are the CRC-32 line frame
//     {"sum":"crc32:<8 hex>","<kind>":<payload>}. The checksum covers
//     the exact payload bytes a reader will see, so a bit flip on disk
//     or on the wire fails the same check.
//   - Lines is the torn-tail rule. A line that does not decode is
//     forgiven only when nothing but blank lines follows it: a crash
//     mid-append leaves exactly that, and anything else is corruption.
//   - Heal readies a line file for appending, so the next append can
//     neither bury a torn line mid-file nor join an unterminated one.
//   - Appender, WriteAtomic and Create write: fsync per record, and
//     temp file + fsync + rename for whole files.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Record is one decoded frame: its kind key and its raw payload, byte
// for byte as framed.
type Record struct {
	Kind    string
	Payload json.RawMessage
}

// checksum fingerprints a payload for the line frame.
func checksum(payload []byte) string {
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(payload))
}

// Frame renders one CRC-framed JSONL line, newline included, for a
// payload under the given kind key.
func Frame(kind string, payload any) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	// Splice the payload under its kind key without re-encoding it:
	// the checksum must cover the exact bytes a reader will see.
	line := fmt.Appendf(nil, `{"sum":%q,%q:`, checksum(body), kind)
	line = append(line, body...)
	return append(line, "}\n"...), nil
}

// ParseFrame decodes and checksum-verifies one framed line. The frame
// must carry exactly one payload beside its checksum.
func ParseFrame(line []byte) (Record, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		return Record{}, fmt.Errorf("frame: %w", err)
	}
	sumRaw, ok := fields["sum"]
	if !ok {
		return Record{}, errors.New("frame has no checksum")
	}
	var sum string
	if err := json.Unmarshal(sumRaw, &sum); err != nil {
		return Record{}, fmt.Errorf("frame checksum: %w", err)
	}
	var rec Record
	for k, v := range fields {
		if k == "sum" {
			continue
		}
		if rec.Kind != "" {
			return Record{}, fmt.Errorf("frame carries both %q and %q", rec.Kind, k)
		}
		rec = Record{Kind: k, Payload: v}
	}
	if rec.Kind == "" {
		return Record{}, errors.New("frame has no payload")
	}
	if got := checksum(rec.Payload); got != sum {
		return Record{}, fmt.Errorf("frame %s: checksum %s, recorded %s", rec.Kind, got, sum)
	}
	return rec, nil
}

// Lines decodes every non-blank line of data with decode. A line that
// fails to decode is a torn tail — dropped, and reported by torn — when
// nothing but blank lines follows it; with content after it, it is
// corruption, and Lines returns its error ("line N: ...") and no
// records.
func Lines[T any](data []byte, decode func([]byte) (T, error)) (recs []T, torn bool, err error) {
	recs, _, torn, err = scan(data, decode)
	return recs, torn, err
}

// scan is Lines that also returns where the torn line starts.
func scan[T any](data []byte, decode func([]byte) (T, error)) (recs []T, cut int, torn bool, err error) {
	var pending error // a bad line, fatal only if more content follows
	off := 0
	for i, raw := range bytes.Split(data, []byte("\n")) {
		start := off
		off += len(raw) + 1
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			return nil, 0, false, pending
		}
		rec, derr := decode(line)
		if derr != nil {
			pending, cut = fmt.Errorf("line %d: %w", i+1, derr), start
			continue
		}
		recs = append(recs, rec)
	}
	return recs, cut, pending != nil, nil
}

// Heal readies the line file at path for appending and returns what
// Lines reads from it. A torn final line is truncated off, since the
// next append would bury it mid-file where Lines must refuse it; an
// intact final line that lost its newline gets one, so the next append
// starts a line of its own. Both repairs are single idempotent
// syscalls and are not fsynced: one lost to a crash is redone by the
// next Heal, and an fsynced append behind it makes it durable. A
// missing file has nothing to heal; a file Lines refuses is left as it
// is.
func Heal[T any](path string, decode func([]byte) (T, error)) (recs []T, torn bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	recs, cut, torn, err := scan(data, decode)
	switch {
	case err != nil:
		return nil, false, err
	case torn:
		err = os.Truncate(path, int64(cut))
	case len(data) > 0 && data[len(data)-1] != '\n':
		err = appendNewline(path)
	}
	return recs, torn, err
}

func appendNewline(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte{'\n'})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Appender appends CRC-framed records to a file, fsyncing each one
// before Append returns, so a crash right after cannot lose a record
// its writer already reported. Appends are mutex-serialized. The nil
// Appender drops records: a service without a journal runs in memory.
//
// An Appender is fail-stop: after a failed write or sync, every later
// Append returns that first error. A short write leaves a partial line
// without its newline, and a later record appended behind it would
// join that line — reported written, then dropped or refused on load.
type Appender struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// OpenAppender opens an existing line file for appending.
func OpenAppender(path string) (*Appender, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening %s for append: %w", path, err)
	}
	return &Appender{f: f}, nil
}

// Create writes content to path atomically (WriteAtomic) and opens the
// result for appending. An existing file at path is replaced.
func Create(path string, content []byte) (*Appender, error) {
	if err := WriteAtomic(path, content); err != nil {
		return nil, err
	}
	return OpenAppender(path)
}

// Append frames payload under kind, writes it and fsyncs.
func (a *Appender) Append(kind string, payload any) error {
	if a == nil {
		return nil
	}
	line, err := Frame(kind, payload)
	if err != nil {
		return fmt.Errorf("durable: encoding %s record: %w", kind, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	if _, err := a.f.Write(line); err != nil {
		a.err = fmt.Errorf("durable: appending %s record: %w", kind, err)
	} else if err := a.f.Sync(); err != nil {
		a.err = fmt.Errorf("durable: syncing %s: %w", a.f.Name(), err)
	}
	return a.err
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
