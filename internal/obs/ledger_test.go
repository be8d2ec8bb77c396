package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"branchscope/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestLedgerGolden pins the v1 record encoding byte for byte: schema
// and key order are a contract with downstream grep/jq consumers.
// Regenerate with `go test ./internal/obs -run LedgerGolden -update`.
func TestLedgerGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("covert.episodes").Add(3)
	prev := reg.Snapshot()
	reg.Counter("covert.episodes").Add(17)
	reg.Histogram("probe.cycles", []uint64{64, 128}).Observe(70)
	delta := reg.Snapshot().Delta(prev)

	var buf bytes.Buffer
	l := NewLedger(&buf)
	if err := l.Append(LedgerRecord{
		Program:  "experiments",
		ID:       "table2",
		Artifact: "Table 2",
		Config:   map[string]any{"quick": true, "parallel": 4, "timeout": "0s"},
		BaseSeed: 1,
		Seed:     8690149346391973011,
		Outcome:  "ok",
		// WallSeconds stays 0: the one nondeterministic field.
		ResultDigest: Digest("Skylake isolated random: 0.21%\n"),
		MetricsDelta: &delta,
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(LedgerRecord{
		Program:  "experiments",
		ID:       "fig9",
		Artifact: "Figure 9",
		Config:   map[string]any{"quick": true},
		BaseSeed: 1,
		Seed:     42,
		Outcome:  "error",
		Error:    "engine: task fig9: context canceled",
	}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "ledger.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("ledger encoding drifted from %s (run with -update if intentional):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}

	// Every line must round-trip as a schema-stamped record.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var rec LedgerRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line does not parse: %v\n%s", err, sc.Text())
		}
		if rec.Schema != LedgerSchema {
			t.Errorf("record schema = %q, want %q", rec.Schema, LedgerSchema)
		}
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	if err := l.Append(LedgerRecord{ID: "x"}); err != nil {
		t.Errorf("nil ledger append: %v", err)
	}
	var d *DeltaRecorder
	d.Begin("x")
	if got := d.End("x"); got != nil {
		t.Errorf("nil recorder delta = %+v", got)
	}
	if NewDeltaRecorder(nil) != nil {
		t.Error("recorder over nil registry should be nil")
	}
}

func TestLedgerConcurrentAppendsDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := l.Append(LedgerRecord{Program: "t", ID: "task", Seed: uint64(n*100 + j), Outcome: "ok"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var rec LedgerRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("interleaved line %d: %v", lines, err)
		}
	}
	if lines != 400 {
		t.Errorf("lines = %d, want 400", lines)
	}
}

// shortWriter writes only the first half of its first Write and reports
// no error, as an io.Writer that breaks its contract might; every later
// Write goes through whole.
type shortWriter struct {
	buf   bytes.Buffer
	short bool
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if !w.short {
		w.short = true
		return w.buf.Write(p[:len(p)/2])
	}
	return w.buf.Write(p)
}

// TestLedgerStopsAfterShortWrite: after a short write the ledger is
// fail-stop. Appending behind the partial line would join the next
// record onto it, and ReadLedger would drop the joined line as a torn
// tail: the record lost without an error.
func TestLedgerStopsAfterShortWrite(t *testing.T) {
	w := &shortWriter{}
	l := NewLedger(w)
	first := l.Append(LedgerRecord{Program: "t", ID: "first", Outcome: "ok"})
	if !errors.Is(first, io.ErrShortWrite) {
		t.Fatalf("short write: Append = %v, want io.ErrShortWrite", first)
	}
	written := w.buf.Len()
	if err := l.Append(LedgerRecord{Program: "t", ID: "second", Outcome: "ok"}); err != first {
		t.Errorf("Append after a short write = %v, want the first error %v", err, first)
	}
	if w.buf.Len() != written {
		t.Errorf("Append wrote %d bytes behind the partial line", w.buf.Len()-written)
	}
}

func TestDeltaRecorderAttributesWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("before").Add(5)
	d := NewDeltaRecorder(reg)
	d.Begin("task")
	reg.Counter("during").Add(3)
	delta := d.End("task")
	if delta == nil || len(delta.Counters) != 1 || delta.Counters[0].Name != "during" || delta.Counters[0].Value != 3 {
		t.Errorf("delta = %+v, want only during=3", delta)
	}
	// A quiet window yields nil, keeping ledger records small.
	d.Begin("quiet")
	if got := d.End("quiet"); got != nil {
		t.Errorf("quiet window delta = %+v, want nil", got)
	}
	// End without Begin is nil.
	if got := d.End("never"); got != nil {
		t.Errorf("unopened window delta = %+v, want nil", got)
	}
}

func TestDigestStable(t *testing.T) {
	a, b := Digest("result\n"), Digest("result\n")
	if a != b || a == Digest("other") {
		t.Errorf("digest not a stable fingerprint: %q %q", a, b)
	}
	if len(a) != len("sha256:")+64 {
		t.Errorf("digest shape = %q", a)
	}
}

// TestReadLedgerToleratesTornTail is the torn-file regression test: a
// process killed mid-append leaves a truncated final JSONL line, and
// the reader must surface every intact record plus a torn flag instead
// of failing the whole file. Damage with further content after it is
// real corruption and stays fatal.
func TestReadLedgerToleratesTornTail(t *testing.T) {
	intact := `{"schema":"` + LedgerSchema + `","program":"p","id":"a","config":null,"base_seed":1,"seed":1,"outcome":"ok","wall_seconds":0}` + "\n" +
		`{"schema":"` + LedgerSchema + `","program":"p","id":"b","config":null,"base_seed":1,"seed":2,"outcome":"ok","wall_seconds":0}` + "\n"

	// A clean file: all records, no torn flag.
	recs, torn, err := ReadLedger(strings.NewReader(intact))
	if err != nil || torn || len(recs) != 2 {
		t.Fatalf("clean ledger: recs=%d torn=%v err=%v", len(recs), torn, err)
	}

	// The same file with a truncated final append.
	tornFile := intact + `{"schema":"` + LedgerSchema + `","program":"p","id":"c","conf`
	recs, torn, err = ReadLedger(strings.NewReader(tornFile))
	if err != nil {
		t.Fatalf("torn tail must not fail the read: %v", err)
	}
	if !torn {
		t.Error("torn tail not flagged")
	}
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "b" {
		t.Errorf("intact records lost: %+v", recs)
	}

	// Trailing blank lines after the torn line are still a torn tail.
	recs, torn, err = ReadLedger(strings.NewReader(tornFile + "\n\n"))
	if err != nil || !torn || len(recs) != 2 {
		t.Errorf("blank lines after torn tail: recs=%d torn=%v err=%v", len(recs), torn, err)
	}

	// Damage mid-file — content after the bad line — is fatal.
	corrupt := `{"schema":"` + LedgerSchema + `","program":"p","id":"a","conf` + "\n" + intact
	if _, _, err := ReadLedger(strings.NewReader(corrupt)); err == nil {
		t.Error("mid-file corruption read without error")
	}

	// An empty ledger is valid and empty.
	recs, torn, err = ReadLedger(strings.NewReader(""))
	if err != nil || torn || len(recs) != 0 {
		t.Errorf("empty ledger: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

// TestReadLedgerRoundTripsWriter reads back what Ledger.Append wrote.
func TestReadLedgerRoundTripsWriter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	for i := 0; i < 3; i++ {
		if err := l.Append(LedgerRecord{Program: "p", ID: string(rune('a' + i)), BaseSeed: 1, Seed: uint64(i), Outcome: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	recs, torn, err := ReadLedger(&buf)
	if err != nil || torn {
		t.Fatalf("round trip: torn=%v err=%v", torn, err)
	}
	if len(recs) != 3 || recs[2].ID != "c" || recs[2].Schema != LedgerSchema {
		t.Errorf("round trip lost records: %+v", recs)
	}
}
