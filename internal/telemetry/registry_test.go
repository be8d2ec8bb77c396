package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Error("second lookup returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("Value = %g, want 2.5", got)
	}
}

// TestHistogramBucketBoundaries pins the <=-bound semantics: a value
// equal to a bound lands in that bound's bucket, one above spills into
// the next, and values above the last bound land in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []uint64{10, 20, 30})
	for _, v := range []uint64{5, 10, 11, 20, 30, 31, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms[0]
	wantBuckets := []uint64{2, 2, 1} // {5,10}, {11,20}, {30}
	for i, want := range wantBuckets {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket le=%d count = %d, want %d", s.Buckets[i].LE, s.Buckets[i].Count, want)
		}
	}
	if s.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	if s.Count != 7 || s.Min != 5 || s.Max != 1000 {
		t.Errorf("count/min/max = %d/%d/%d, want 7/5/1000", s.Count, s.Min, s.Max)
	}
	if s.Sum != 5+10+11+20+30+31+1000 {
		t.Errorf("sum = %d", s.Sum)
	}
}

func TestHistogramEmptyMinIsZero(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []uint64{1})
	s := r.Snapshot().Histograms[0]
	if s.Min != 0 || s.Max != 0 || s.Count != 0 {
		t.Errorf("empty histogram snapshot = %+v", s)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on non-increasing bounds")
		}
	}()
	NewRegistry().Histogram("bad", []uint64{10, 10})
}

// TestNilRegistryNoOp covers the disabled fast path end to end: a nil
// registry hands out nil instruments, and every operation on them (and
// on a nil Set and Tracer) is a safe no-op.
func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry returned a counter")
	}
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("x")
	g.Set(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := r.Histogram("x", []uint64{1, 2})
	if h != nil {
		t.Fatal("nil registry returned a histogram")
	}
	h.Observe(7)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}

	var set *Set
	set.Counter("x").Inc()
	set.Gauge("x").Set(1)
	set.Histogram("x", []uint64{1}).Observe(1)
	set.Span(1, "c", "n", 0, 10, nil)
	set.Instant(1, "c", "n", 0, nil)
	set.NameThread(1, "n")
	if set.NewThreadID() != 0 {
		t.Error("nil Set allocated a thread id")
	}

	var tr *Tracer
	tr.Complete(1, "c", "n", 0, 10, nil)
	tr.Instant(1, "c", "n", 0, nil)
	tr.ThreadName(1, "n")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Error("nil tracer JSON missing traceEvents")
	}
}

// TestConcurrentCounters exercises the atomics under -race.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("contended")
	h := r.Histogram("contended.hist", ExpBuckets(1, 2, 10))
	g := r.Gauge("contended.gauge")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(uint64(i%512 + 1))
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.count.Load(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestSnapshotDeterministicOrder checks name-sorted export regardless of
// registration order, and byte-identical JSON across snapshots.
func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zz", "aa", "mm"} {
		r.Counter(name).Inc()
		r.Gauge("g." + name).Set(1)
		r.Histogram("h."+name, []uint64{1, 2}).Observe(1)
	}
	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted: %v", s.Counters)
		}
	}
	var a, b bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshots of identical state differ")
	}
	var decoded Snapshot
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(decoded.Counters) != 3 {
		t.Errorf("decoded %d counters, want 3", len(decoded.Counters))
	}
}

func TestWriteTextSections(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.one").Add(7)
	r.Gauge("g.one").Set(1.5)
	r.Histogram("h.one", []uint64{10}).Observe(4)
	out := r.Snapshot().String()
	for _, want := range []string{"counters:", "c.one", "7", "gauges:", "1.5", "histograms:", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q in:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(64, 2, 5)
	want := []uint64{64, 128, 256, 512, 1024}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	// Degenerate growth still yields strictly increasing bounds.
	tight := ExpBuckets(1, 1.01, 8)
	for i := 1; i < len(tight); i++ {
		if tight[i] <= tight[i-1] {
			t.Fatalf("not strictly increasing: %v", tight)
		}
	}
}
