// Package metrics is a dependency-free instrument registry for the
// anonymization pipeline: atomic counters, gauges, and fixed-bucket
// histograms, grouped into named families with optional label
// dimensions, exposable as Prometheus text (expose.go) and as a flat
// JSON-able snapshot for run reports.
//
// Design constraints, in order:
//
//   - Hot-path cost. Counter.Add is one atomic add; Histogram.Observe is
//     a branch-free bucket walk plus two atomic adds and a CAS loop for
//     the float sum. Counts another layer already keeps are registered
//     as sampled series (CounterFunc, GaugeFunc) and read only when the
//     registry is exposed, so they cost nothing while nobody looks.
//   - Concurrency. Every instrument is safe for concurrent use; a single
//     Registry can be shared by all workers of a parallel corpus run and
//     the counts merge by construction, with no gather step.
//   - Idempotent registration. Asking a Registry for an instrument that
//     already exists (same name, same type, same label keys) returns the
//     existing one, so independent workers and layers can wire the same
//     metric without coordinating. A name re-registered with a different
//     type or label arity panics: that is a programming error, and
//     silently forking a metric would corrupt the exposition.
//
// Metric naming follows the Prometheus conventions documented in
// DESIGN.md §3d: snake_case, a unit suffix (_total for counters,
// _seconds/_ns where dimensioned), label keys for dimensions with small
// closed vocabularies.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic-by-convention cumulative count. Add accepts
// negative deltas because the anonymizer's fail-closed batch layer rolls
// a failed file's partial counts back out of the totals; between file
// boundaries the value is monotonic.
type Counter struct {
	v atomic.Int64
	// exemplar holds the last SetExemplar annotation (a string, e.g.
	// `request_id="ab12"`), exposed as a comment line alongside the
	// series — exemplar-style context without departing from the 0.0.4
	// text format this package's ParseText round-trips.
	exemplar atomic.Pointer[string]
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n rolls back a failed file's partial counts).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// SetExemplar attaches (or, with "", clears) a free-form annotation tying
// the series to one recent contributing event — typically a request or
// trace id. The exposition renders it as a `# exemplar` comment line, so
// every 0.0.4 consumer (and ParseText) skips it; it never affects the
// value or the series identity.
func (c *Counter) SetExemplar(note string) {
	if note == "" {
		c.exemplar.Store(nil)
		return
	}
	c.exemplar.Store(&note)
}

// Exemplar returns the current annotation ("" when unset).
func (c *Counter) Exemplar() string {
	if p := c.exemplar.Load(); p != nil {
		return *p
	}
	return ""
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bounds (seconds): exponential
// from 100µs to 10s, sized for per-file pipeline stages.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed cumulative buckets and tracks
// their sum and count. All methods are safe for concurrent use.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, merged by CAS
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			goto counted
		}
	}
	h.counts[len(h.bounds)].Add(1)
counted:
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// instrument type tags for registration conflict checks.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance within a family: exactly one of the
// instrument pointers (or the sampling function) is set.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
	fn        func() float64 // sampled gauge or counter
}

// family is all series sharing one metric name.
type family struct {
	name      string
	help      string
	typ       string
	labelKeys []string
	buckets   []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]*series // keyed by joined label values
}

func (f *family) get(vals []string) (*series, bool) {
	f.mu.RLock()
	s, ok := f.series[joinVals(vals)]
	f.mu.RUnlock()
	return s, ok
}

func (f *family) getOrCreate(vals []string, mk func() *series) *series {
	if s, ok := f.get(vals); ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := joinVals(vals)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labelVals = append([]string(nil), vals...)
	f.series[key] = s
	return s
}

// joinVals builds the series key; 0x1f cannot appear in sane label
// values and keeps "a","bc" distinct from "ab","c".
func joinVals(vals []string) string {
	switch len(vals) {
	case 0:
		return ""
	case 1:
		return vals[0]
	}
	n := 0
	for _, v := range vals {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return string(b)
}

// Registry holds a namespace of instrument families.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family

	sharedMu sync.Mutex
	shared   map[any]any // Shared values, keyed by the caller's key
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), shared: make(map[any]any)}
}

// familyFor finds or creates the named family, enforcing that repeated
// registration agrees on type and label arity.
func (r *Registry) familyFor(name, help, typ string, labelKeys []string, buckets []float64) *family {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.fams[name]; !ok {
			f = &family{
				name: name, help: help, typ: typ,
				labelKeys: append([]string(nil), labelKeys...),
				buckets:   append([]float64(nil), buckets...),
				series:    make(map[string]*series),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labelKeys) != len(labelKeys) {
		panic(fmt.Sprintf("metrics: %s re-registered as %s/%d labels (was %s/%d)",
			name, typ, len(labelKeys), f.typ, len(f.labelKeys)))
	}
	for i, k := range labelKeys {
		if f.labelKeys[i] != k {
			panic(fmt.Sprintf("metrics: %s re-registered with label %q (was %q)", name, k, f.labelKeys[i]))
		}
	}
	return f
}

// Counter returns the unlabeled counter name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.familyFor(name, help, typeCounter, nil, nil)
	return f.getOrCreate(nil, func() *series { return &series{c: &Counter{}} }).c
}

// Gauge returns the unlabeled gauge name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.familyFor(name, help, typeGauge, nil, nil)
	return f.getOrCreate(nil, func() *series { return &series{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// exposition time (for sizes held elsewhere, e.g. the IP-mapping table).
// Re-registering the same name replaces the sampling function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.familyFor(name, help, typeGauge, nil, nil).setFunc(nil, fn)
}

// CounterFunc registers a counter whose value is sampled by calling fn
// at exposition time, for counts another layer already keeps (the
// engine's Stats book): the registry reads them instead of having them
// pushed. Re-registering the same name replaces the sampling function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.familyFor(name, help, typeCounter, nil, nil).setFunc(nil, fn)
}

// setFunc installs fn as the sampling function of one series.
func (f *family) setFunc(vals []string, fn func() float64) {
	s := f.getOrCreate(vals, func() *series { return &series{} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// Shared returns the value the registry holds under key, storing mk()
// first if there is none. It lets a layer keep exactly one accumulator
// per registry behind its sampled series without a process-global
// table; mk runs at most once per key and may register instruments.
func (r *Registry) Shared(key any, mk func() any) any {
	r.sharedMu.Lock()
	defer r.sharedMu.Unlock()
	v, ok := r.shared[key]
	if !ok {
		v = mk()
		r.shared[key] = v
	}
	return v
}

// Histogram returns the unlabeled histogram name with the given bucket
// upper bounds (DefBuckets when bounds is empty), creating it on first
// use.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	f := r.familyFor(name, help, typeHistogram, nil, bounds)
	return f.getOrCreate(nil, func() *series { return &series{h: newHistogram(f.buckets)} }).h
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family name.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.familyFor(name, help, typeCounter, labelKeys, nil)}
}

// With returns the counter for one combination of label values (arity
// must match the registered keys).
func (v *CounterVec) With(labelVals ...string) *Counter {
	v.f.checkArity(labelVals)
	return v.f.getOrCreate(labelVals, func() *series { return &series{c: &Counter{}} }).c
}

// WithFunc registers the series for one combination of label values as
// sampled: fn is called at exposition time (see CounterFunc).
func (v *CounterVec) WithFunc(fn func() float64, labelVals ...string) {
	v.f.checkArity(labelVals)
	v.f.setFunc(labelVals, fn)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family name.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{r.familyFor(name, help, typeGauge, labelKeys, nil)}
}

// With returns the gauge for one combination of label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	v.f.checkArity(labelVals)
	return v.f.getOrCreate(labelVals, func() *series { return &series{g: &Gauge{}} }).g
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family name with the given
// bounds (DefBuckets when nil).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &HistogramVec{r.familyFor(name, help, typeHistogram, labelKeys, bounds)}
}

// With returns the histogram for one combination of label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	v.f.checkArity(labelVals)
	return v.f.getOrCreate(labelVals, func() *series { return &series{h: newHistogram(v.f.buckets)} }).h
}

func (f *family) checkArity(vals []string) {
	if len(vals) != len(f.labelKeys) {
		panic(fmt.Sprintf("metrics: %s given %d label values, want %d", f.name, len(vals), len(f.labelKeys)))
	}
}

// sortedFamilies returns the families in name order for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns a family's series in label-value order.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return joinVals(out[i].labelVals) < joinVals(out[j].labelVals)
	})
	return out
}
