// Package obs is the lake's dependency-free observability layer: a metrics
// registry (counters, gauges, fixed-bucket latency histograms) with
// Prometheus text-format exposition, plus per-request tracing (request ID
// generation/propagation and a structured access log).
//
// The paper's §5 system design puts the indexer and inference services
// behind user-facing query applications; this package is how those
// components report what they are doing — latency, cache behaviour, error
// rates — instead of logging to stderr and hoping.
//
// Metric identity is (name, sorted label set). Get-or-create accessors are
// idempotent: asking for the same counter twice returns the same instance,
// so call sites can look metrics up per operation without caching them.
// Everything is safe for concurrent use; hot-path mutations are single
// atomic operations.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LatencyBuckets is the default histogram bucketing for operation
// latencies, in seconds: 100µs to 10s, roughly logarithmic. Fine enough to
// separate a cache hit from an fsync, coarse enough to stay cheap.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down (e.g. in-flight
// requests).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram in the Prometheus style: counts of
// observations at or below each upper bound, plus a running sum and count.
// Observe is lock-free (one atomic add per bucket hit plus a CAS loop for
// the float sum).
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Since records the seconds elapsed since start — the usual way to time an
// operation: defer hist.Since(time.Now()).
func (h *Histogram) Since(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the cumulative count at or below
// each, Prometheus-style; the final entry is (+Inf, Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// metric is one (name, labels) series.
type metric struct {
	labels string // canonical rendered label string, "" for none
	kind   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name; Prometheus requires one
// TYPE per family and consistent kinds within it.
type family struct {
	name    string
	kind    string
	series  map[string]*metric
	buckets []float64 // histogram families: bounds fixed at first creation
}

// Registry holds metric families and renders them. The zero value is not
// usable; use NewRegistry or Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level
// instrumentation (kvstore, blob, search, lake, server) records into and
// GET /metrics exposes.
func Default() *Registry { return defaultRegistry }

// renderLabels produces the canonical `{k="v",...}` form (keys sorted,
// values escaped) or "" for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v // nearly every value: route patterns, methods, kinds
	}
	return labelEscaper.Replace(v)
}

// lookup returns the series for (name, labels), creating family and series
// as needed. A kind conflict on an existing family or series panics: two
// call sites disagreeing about what a metric is can only be a bug.
func (r *Registry) lookup(name, kind string, labels []Label, buckets []float64) *metric {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, series: make(map[string]*metric), buckets: buckets}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	m := f.series[key]
	if m == nil {
		m = &metric{labels: key, kind: kind}
		switch kind {
		case kindCounter:
			m.c = &Counter{}
		case kindGauge:
			m.g = &Gauge{}
		case kindHistogram:
			m.h = newHistogram(f.buckets)
		}
		f.series[key] = m
	}
	return m
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, labels, nil).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, labels, nil).g
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. buckets sets the upper bounds for the whole family the first time any
// series of it is created; nil means LatencyBuckets. Later calls may pass
// nil — the family's established bounds are reused.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return r.lookup(name, kindHistogram, labels, buckets).h
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshotFamilies copies the family list under the lock so rendering can
// run without holding it.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []*metric {
	ms := make([]*metric, 0, len(f.series))
	for _, m := range f.series {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].labels < ms[j].labels })
	return ms
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and series by label set,
// so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, m := range f.sortedSeries() {
			if err := writeSeries(w, f.name, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, m *metric) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, m.labels, m.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, m.labels, m.g.Value())
		return err
	case kindHistogram:
		bounds, cum := m.h.Buckets()
		for i, b := range bounds {
			le := L("le", formatFloat(b))
			lbl := mergeLabels(m.labels, le)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl, cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, m.labels, formatFloat(m.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, m.labels, m.h.Count())
		return err
	}
	return nil
}

// mergeLabels appends extra labels to an already-rendered label string.
// Prometheus puts histogram "le" last by convention, which this preserves.
func mergeLabels(rendered string, extra Label) string {
	pair := extra.Key + `="` + escapeLabelValue(extra.Value) + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// BucketSnapshot is one cumulative histogram bucket in a Snapshot.
type BucketSnapshot struct {
	LE    string `json:"le"` // upper bound; "+Inf" for the overflow bucket
	Count uint64 `json:"count"`
}

// MetricSnapshot is one series' point-in-time value, JSON-friendly — the
// payload behind lakebench's -metrics-json artifact.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Type    string           `json:"type"`
	Labels  string           `json:"labels,omitempty"` // canonical {k="v"} form
	Value   float64          `json:"value,omitempty"`
	Count   uint64           `json:"count,omitempty"` // histograms
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot returns every series' current value, ordered like
// WritePrometheus.
func (r *Registry) Snapshot() []MetricSnapshot {
	var out []MetricSnapshot
	for _, f := range r.snapshotFamilies() {
		for _, m := range f.sortedSeries() {
			s := MetricSnapshot{Name: f.name, Type: f.kind, Labels: m.labels}
			switch m.kind {
			case kindCounter:
				s.Value = float64(m.c.Value())
			case kindGauge:
				s.Value = float64(m.g.Value())
			case kindHistogram:
				s.Count = m.h.Count()
				s.Sum = m.h.Sum()
				bounds, cum := m.h.Buckets()
				s.Buckets = make([]BucketSnapshot, len(bounds))
				for i := range bounds {
					s.Buckets[i] = BucketSnapshot{LE: formatFloat(bounds[i]), Count: cum[i]}
				}
			}
			out = append(out, s)
		}
	}
	return out
}
