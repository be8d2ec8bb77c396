package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide metrics registry. Instruments are created
// on first use and live for the registry's lifetime; looking a name up
// again returns the same instrument. A nil *Registry is a valid,
// disabled registry that hands out nil instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (strictly increasing; values above the
// last bound land in an overflow bucket). The bounds of the first
// registration win; later lookups ignore theirs. Returns nil on a nil
// registry. Panics on non-increasing bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing", name))
			}
		}
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing uint64 metric. The nil counter
// is valid and ignores writes.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 metric. The nil gauge is valid and
// ignores writes.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates uint64 observations into fixed buckets, plus
// count, sum, min and max. The nil histogram is valid and ignores
// observations.
type Histogram struct {
	bounds  []uint64 // immutable after creation
	buckets []atomic.Uint64
	over    atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64
	max     atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	h := &Histogram{
		bounds:  append([]uint64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)),
	}
	h.min.Store(math.MaxUint64)
	return h
}

// Observe records one value: it lands in the first bucket whose upper
// bound is >= v, or in the overflow bucket.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	if i == len(h.bounds) {
		h.over.Add(1)
	} else {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// CounterSnapshot is one counter in a Snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is one gauge in a Snapshot.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketSnapshot is one histogram bucket: the count of observations v
// with prevLE < v <= LE.
type BucketSnapshot struct {
	LE    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is one histogram in a Snapshot.
type HistogramSnapshot struct {
	Name     string           `json:"name"`
	Count    uint64           `json:"count"`
	Sum      uint64           `json:"sum"`
	Min      uint64           `json:"min"`
	Max      uint64           `json:"max"`
	Buckets  []BucketSnapshot `json:"buckets"`
	Overflow uint64           `json:"overflow"`
}

// Mean returns the mean observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by metric name so exports are deterministic.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Filter returns the subset of the snapshot whose metric names start
// with prefix, preserving the name-sorted order. It lets scoped
// exports (the obs server's /leakage endpoint) reuse one registry
// snapshot instead of creating instruments on scrape.
func (s Snapshot) Filter(prefix string) Snapshot {
	var out Snapshot
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.Name, prefix) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, prefix) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// Snapshot captures the registry's current state in deterministic
// (name-sorted) order. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Name:     name,
			Count:    h.count.Load(),
			Sum:      h.sum.Load(),
			Min:      h.min.Load(),
			Max:      h.max.Load(),
			Overflow: h.over.Load(),
		}
		if hs.Count == 0 {
			hs.Min = 0
		}
		for i, b := range h.bounds {
			hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: b, Count: h.buckets[i].Load()})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON. The output is
// byte-deterministic for identical registry contents.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteText writes the snapshot as an aligned, human-readable table (the
// format behind `branchscope -v`).
func (s Snapshot) WriteText(w io.Writer) error {
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	var b strings.Builder
	if len(s.Counters) > 0 {
		fmt.Fprintf(&b, "counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-*s %d\n", width, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(&b, "gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-*s %g\n", width, g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(&b, "histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-*s count=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f min=%d max=%d\n",
				width, h.Name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Min, h.Max)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String implements fmt.Stringer via WriteText.
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}
