// Package obs is the dependency-free instrumentation subsystem: atomic
// counters, gauges and fixed-bucket histograms behind a Registry, exposed in
// the Prometheus text format. It exists so that the hot paths of this
// repository — ingesting one record, stepping one walker, looking up one
// block-cache page — can be observed in production at the cost of a single
// atomic add each, and so that the serving daemon can answer "what is the
// block-cache hit rate of this 1M-node crawl" and "how fast are the CI
// half-widths shrinking" while the crawl runs, not after.
//
// Design constraints, in order:
//
//  1. Hot-path updates are one atomic add. Counters are striped across
//     cache lines (see Counter) so that concurrent writers — eight walkers,
//     eight ingest shards — do not serialize on one contended word the way
//     a naive shared counter would. Reads fold the stripes; monitoring
//     reads are rare and may be microseconds, writes are per-record and
//     must be nanoseconds.
//  2. No dependencies. The exposition format is the stable Prometheus text
//     format (version 0.0.4), small enough to emit by hand; pulling in a
//     client library for three metric types would dominate the module's
//     dependency graph.
//  3. Registration is startup-time and infallible-or-panic: metrics are
//     package variables created once at init, so an invalid or duplicate
//     name is a programmer error surfaced at first import, never a runtime
//     error path the caller must thread through hot code.
//
// Metrics live in a Registry; the package-level Default registry is what
// the instrumented layers (internal/stream, internal/crawl, internal/graph)
// register into and what cmd/topoestd serves at GET /metrics via Handler.
// Tests that need isolation build their own Registry.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// numStripes is the stripe count of a Counter: a power of two, sized to the
// concurrency the benchmarks exercise (8 ingest shards, 8 walkers). More
// stripes cost memory (one cache line each), not time.
const numStripes = 8

// stripe is one cache-line-padded counter cell. The padding prevents false
// sharing between adjacent stripes — without it, striping buys nothing.
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing integer metric. Inc and Add are one
// atomic add to a per-goroutine-biased stripe: the stripe index is derived
// from the caller's stack address, which is constant within a goroutine and
// distinct across goroutines (stacks are disjoint ≥8 KiB regions), so
// concurrent writers land on different cache lines without any registry of
// goroutine identity. Value folds the stripes; it is exact once writers are
// quiescent and monotone-consistent while they race.
type Counter struct {
	stripes [numStripes]stripe
}

// stripeIndex picks the caller's stripe from its stack address. The shift
// discards the within-frame offset; the mask folds the address into the
// stripe range.
func stripeIndex() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 10) & (numStripes - 1))
}

// Inc adds 1.
func (c *Counter) Inc() { c.stripes[stripeIndex()].v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.stripes[stripeIndex()].v.Add(n) }

// Value returns the folded count.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// FloatCounter is a monotonically increasing float metric — for totals
// measured in seconds (pacing waits, cumulative latency) rather than events.
// Add is a CAS loop; use it on paths that already block or sleep, not on
// per-record hot paths (Counter is the hot-path type).
type FloatCounter struct {
	bits atomic.Uint64
}

// Add adds v (≥ 0).
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a settable float metric (live levels: queue depths, CI
// half-widths, cache occupancy). Set and Value are single atomic word
// operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (not atomic with concurrent Add — use for single-writer gauges).
func (g *Gauge) Add(v float64) { g.Set(g.Value() + v) }

// Value returns the current level (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric: observation counts per
// upper bound, plus the running sum and count that make rate(sum)/rate(count)
// the live mean. Observe is two atomic adds plus one CAS — cheap enough for
// request/snapshot/checkpoint latencies, deliberately not used on per-record
// paths (the one-atomic-add budget there belongs to Counter).
//
// Buckets are upper bounds in increasing order; an implicit +Inf bucket
// catches the tail. Buckets never change after construction, so Observe is
// lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; non-cumulative, cumulated at export
	count  atomic.Int64
	sum    FloatCounter
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~20) and the scan is
	// branch-predictable; a binary search would not win at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	if v == v { // keep the sum finite under a stray NaN observation
		h.sum.Add(v)
	}
}

// ObserveSince records the seconds elapsed since t0 — the timer idiom:
//
//	defer h.ObserveSince(time.Now())
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// ExpBuckets returns n exponentially spaced upper bounds start, start·factor,
// start·factor², … — the standard latency/size bucket shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d) needs start > 0, factor > 1, n ≥ 1", start, factor, n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// LatencyBuckets spans 1µs–10s decades: snapshot latencies are tens of
// microseconds, bootstrap snapshots near a millisecond, HTTP requests and
// rate-limited crawls up to seconds.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 10, 8) }

// child is one exported sample set: the label values that identify it within
// its family plus the metric holding its state.
type child struct {
	vals []string
	m    any // *Counter | *FloatCounter | *Gauge | *Histogram | func() float64
}

// family is one named metric: its metadata plus its children (exactly one,
// unlabeled, for plain metrics; one per seen label-value tuple for vecs).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
}

// get returns the child for the given label values, creating it with fresh
// state on first use.
func (f *family) get(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has labels %v, got %d values %v", f.name, f.labels, len(vals), vals))
	}
	key := strings.Join(vals, "\x00")
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c = &child{vals: append([]string(nil), vals...)}
	switch f.kind {
	case KindCounter:
		c.m = &Counter{}
	case KindGauge:
		c.m = &Gauge{}
	case KindHistogram:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Int64, len(f.buckets)+1)
		c.m = h
	}
	f.children[key] = c
	return c
}

// Registry holds a set of metric families and serializes them in the
// Prometheus text format. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry the instrumented layers register
// into and cmd/topoestd exposes at GET /metrics.
var Default = NewRegistry()

var procStart = time.Now()

func init() {
	// Process-level pulse metrics every exposition should carry.
	Default.NewGaugeFunc("go_goroutines", "Number of live goroutines.", liveGoroutines)
	Default.NewGaugeFunc("process_uptime_seconds", "Seconds since the process started.", func() float64 {
		return time.Since(procStart).Seconds()
	})
}

// register validates and installs a family, panicking on programmer errors
// (registration happens in package init; see the package comment).
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l, true) {
			panic(fmt.Sprintf("obs: metric %s has invalid label name %q", name, l))
		}
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %s needs at least one bucket", name))
		}
		for i := 1; i < len(buckets); i++ {
			if !(buckets[i] > buckets[i-1]) {
				panic(fmt.Sprintf("obs: histogram %s buckets must increase strictly, got %v", name, buckets))
			}
		}
		for _, l := range labels {
			if l == "le" {
				panic(fmt.Sprintf("obs: histogram %s may not declare the reserved label \"le\"", name))
			}
		}
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = f
	return f
}

// validName checks a metric or label name against the Prometheus grammar.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (!label && c == ':')
		if !alpha && !(i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// NewCounter registers and returns a plain counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).get(nil).m.(*Counter)
}

// NewFloatCounter registers and returns a float counter (totals in seconds).
func (r *Registry) NewFloatCounter(name, help string) *FloatCounter {
	f := r.register(name, help, KindCounter, nil, nil)
	c := f.get(nil)
	c.m = &FloatCounter{}
	return c.m.(*FloatCounter)
}

// NewGauge registers and returns a plain gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).get(nil).m.(*Gauge)
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	c := f.get(nil)
	c.m = fn
}

// NewHistogram registers and returns a fixed-bucket histogram.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, buckets).get(nil).m.(*Histogram)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec metric %s needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on first
// use. Hot paths should hold on to the returned child instead of resolving
// the labels per event.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values).m.(*Counter)
}

// Total folds all children — the label-blind cumulative count.
func (v *CounterVec) Total() int64 {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	var sum int64
	for _, c := range v.f.children {
		sum += c.m.(*Counter).Value()
	}
	return sum
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec metric %s needs at least one label", name))
	}
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values).m.(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family with shared buckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec metric %s needs at least one label", name))
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values).m.(*Histogram)
}

// GaugeFuncVec is a family of scrape-time gauges partitioned by label
// values — per-entity callbacks rather than stored values (e.g. the merge
// coordinator exports one staleness gauge per worker URL).
type GaugeFuncVec struct{ f *family }

// NewGaugeFuncVec registers a labeled scrape-time gauge family.
func (r *Registry) NewGaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec metric %s needs at least one label", name))
	}
	return &GaugeFuncVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// Register installs the callback for the given label values, replacing any
// previous one — re-registering is what lets a rebuilt component (a new
// merge coordinator in tests, a reloaded worker set) take over its series.
func (v *GaugeFuncVec) Register(fn func() float64, values ...string) {
	c := v.f.get(values)
	v.f.mu.Lock()
	c.m = fn
	v.f.mu.Unlock()
}

// Names returns the registered family names, sorted — the registry's own
// metric catalog (the scrape tests assert against it).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Package-level constructors registering into Default — what the
// instrumented layers use for their package-variable metrics.

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewFloatCounter registers a float counter on the Default registry.
func NewFloatCounter(name, help string) *FloatCounter { return Default.NewFloatCounter(name, help) }

// NewGaugeFunc registers a scrape-time gauge on the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) { Default.NewGaugeFunc(name, help, fn) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// NewCounterVec registers a labeled counter family on the Default registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// NewGaugeVec registers a labeled gauge family on the Default registry.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labels...)
}

// NewGaugeFuncVec registers a labeled scrape-time gauge family on the
// Default registry.
func NewGaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	return Default.NewGaugeFuncVec(name, help, labels...)
}

// NewHistogramVec registers a labeled histogram family on the Default
// registry.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, buckets, labels...)
}

// formatValue renders a sample value: shortest round-trip float, with the
// Prometheus spellings of the non-finite values.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
