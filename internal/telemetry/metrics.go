package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels are the constant label set of one metric series.
type Labels map[string]string

// render serialises labels in sorted order for series identity and
// Prometheus output ("" for the empty set).
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// With returns a copy of the label set with one more label.
func (l Labels) With(key, value string) Labels {
	c := make(Labels, len(l)+1)
	for k, v := range l {
		c[k] = v
	}
	c[key] = value
	return c
}

// Options set the clock and rolling window behind every instrument's
// windowed reads. Zero values mean the wall clock, DefaultWindow and
// DefaultResolution.
type Options struct {
	Clock      Clock
	Window     time.Duration
	Resolution time.Duration
}

// DefaultWindow and DefaultResolution give every instrument a minute of
// history at one-second granularity: wide enough for a slow SLO burn
// window, fine enough for a fast one.
const (
	DefaultWindow     = time.Minute
	DefaultResolution = time.Second
)

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = Wall
	}
	if o.Resolution <= 0 {
		o.Resolution = DefaultResolution
	}
	if o.Window < o.Resolution {
		o.Window = DefaultWindow
	}
	return o
}

// Registry is a process-wide collection of counters, gauges and
// histograms. Series are identified by name plus label set; asking for
// the same series twice returns the same instrument. Every instrument
// answers both "how much over the whole run" and "how much over the
// last w" against the registry's clock and window. Safe for concurrent
// use.
type Registry struct {
	opts     Options
	mu       sync.Mutex
	families map[string]*family // by metric name
	order    []string           // family registration order
}

type family struct {
	name    string
	typ     string // "counter", "gauge", "histogram"
	help    string
	buckets []float64      // histogram bounds, fixed by the first registration
	series  map[string]any // by rendered labels
	sorder  []string
}

// NewRegistry creates an empty registry on the wall clock with the
// default window.
func NewRegistry() *Registry { return NewRegistryWith(Options{}) }

// NewRegistryWith creates an empty registry with the given clock and
// window settings.
func NewRegistryWith(o Options) *Registry {
	return &Registry{opts: o.withDefaults(), families: make(map[string]*family)}
}

var std = NewRegistry()

// Default returns the process-wide registry, for code without a
// registry of its own.
func Default() *Registry { return std }

// Clock returns the clock the registry's windows rotate on.
func (r *Registry) Clock() Clock { return r.opts.Clock }

// Window returns the span of history a full-window read covers.
func (r *Registry) Window() time.Duration { return r.opts.Window }

// Help sets the # HELP text of a metric family.
func (r *Registry) Help(name, text string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name).help = text
	return r
}

func (r *Registry) familyLocked(name string) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, series: make(map[string]any)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// lookup finds or creates the series, enforcing one type per family.
func (r *Registry) lookup(name, typ string, labels Labels, make_ func(*family) any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name)
	if f.typ == "" {
		f.typ = typ // new family, or one pre-created by Help
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	key := labels.render()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make_(f)
	f.series[key] = s
	f.sorder = append(f.sorder, key)
	return s
}

// Counter returns the monotonically increasing series.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.lookup(name, "counter", labels, func(*family) any {
		return &Counter{w: newRing[float64](r.opts, nil)}
	}).(*Counter)
}

// Gauge returns the set-to-current-value series.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.lookup(name, "gauge", labels, func(*family) any {
		return &Gauge{w: newRing[gaugeSlot](r.opts, nil)}
	}).(*Gauge)
}

// Histogram returns the bucketed-distribution series. The bucket bounds
// of the family's first registration win for every series of the
// family, so series merge bucket by bucket; later calls may pass nil.
func (r *Registry) Histogram(name string, labels Labels, buckets []float64) *Histogram {
	return r.lookup(name, "histogram", labels, func(f *family) any {
		if f.buckets == nil {
			if len(buckets) == 0 {
				buckets = DefaultLatencyBuckets
			}
			f.buckets = append([]float64(nil), buckets...)
			sort.Float64s(f.buckets)
		}
		n := len(f.buckets)
		return &Histogram{
			buckets: f.buckets,
			counts:  make([]uint64, n),
			w: newRing(r.opts, func(s *histSlot) {
				clear(s.counts)
				s.sum, s.count = 0, 0
			}),
		}
	}).(*Histogram)
}

// Series is one registered series as the exporters and the dashboard
// walk it: its family, rendered label set and instrument.
type Series struct {
	Name   string // family name
	Type   string // "counter", "gauge", "histogram"
	Help   string
	Labels string // rendered label set: "" or {k="v",...}
	Inst   any    // *Counter, *Gauge or *Histogram
}

// Series lists every series in family, then series, registration order.
func (r *Registry) Series() []Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Series
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.sorder {
			out = append(out, Series{Name: name, Type: f.typ, Help: f.help, Labels: key, Inst: f.series[key]})
		}
	}
	return out
}

// ExpBuckets builds n exponentially growing bucket bounds:
// start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 1 µs … ~8 s in powers of two — wide
// enough for a single elementwise kernel up to a full VGG iteration.
var DefaultLatencyBuckets = ExpBuckets(1e-6, 2, 24)

// Counter is a monotonically increasing float64. Value reads the
// all-time total without a lock; Sum, Rate and Series read the
// registry's rolling window.
type Counter struct {
	bits atomic.Uint64
	mu   sync.Mutex
	w    ring[float64]
}

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.bits, v)
	c.mu.Lock()
	*c.w.now() += v
	c.mu.Unlock()
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the all-time total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Sum returns the accumulation over the last w (0 = full window).
func (c *Counter) Sum(w time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	c.w.recent(w, func(v *float64) { sum += *v })
	return sum
}

// Rate returns the per-second rate over the last w (0 = full window),
// dividing by the history actually covered so a freshly started
// process is not diluted by an empty window.
func (c *Counter) Rate(w time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	covered := c.w.recent(w, func(v *float64) { sum += *v })
	if covered <= 0 {
		return 0
	}
	return sum / covered.Seconds()
}

// Series returns per-slot sums oldest→newest over the last w.
func (c *Counter) Series(w time.Duration) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.series(w, func(v *float64) float64 { return *v })
}

// Gauge is an instantaneous float64. Value reads the current value
// without a lock; Max reads the registry's rolling window, so a
// dashboard shows both "queue depth now" and "peak queue depth in the
// last minute".
type Gauge struct {
	bits atomic.Uint64
	mu   sync.Mutex
	w    ring[gaugeSlot]
}

// gaugeSlot keeps the peak of one resolution interval.
type gaugeSlot struct {
	set bool
	max float64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.setLocked(v)
	g.mu.Unlock()
}

// Add shifts the value by a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	g.mu.Lock()
	g.setLocked(g.Value() + v)
	g.mu.Unlock()
}

func (g *Gauge) setLocked(v float64) {
	g.bits.Store(math.Float64bits(v))
	if s := g.w.now(); !s.set || v > s.max {
		s.set, s.max = true, v
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Max returns the peak over the last w (0 = full window), or the
// current value if no slot in the window recorded anything.
func (g *Gauge) Max(w time.Duration) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	peak, seen := 0.0, false
	g.w.recent(w, func(s *gaugeSlot) {
		if s.set && (!seen || s.max > peak) {
			peak, seen = s.max, true
		}
	})
	if !seen {
		return g.Value()
	}
	return peak
}

// Histogram counts observations into exponential (or caller-chosen)
// buckets, Prometheus-style: cumulative on export, with sum and count.
// Snapshot reads the whole run; Window merges the registry's rolling
// window into the same snapshot form, so a rolling p99 reuses the
// cumulative quantile math.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending; shared by the family
	counts  []uint64  // per-bucket (non-cumulative)
	sum     float64
	count   uint64
	w       ring[histSlot]
}

// histSlot is one resolution interval of bucketed observations.
type histSlot struct {
	counts []uint64 // allocated on the slot's first use, then recycled
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.w.now()
	if s.counts == nil {
		s.counts = make([]uint64, len(h.buckets))
	}
	h.sum += v
	h.count++
	s.sum += v
	s.count++
	// Observations above the last bound only count toward the totals:
	// the +Inf bucket is the count itself.
	if i := sort.SearchFloat64s(h.buckets, v); i < len(h.buckets) {
		h.counts[i]++
		s.counts[i]++
	}
}

// HistogramSnapshot is a consistent copy of a histogram's state with
// cumulative bucket counts (the Prometheus le semantics).
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []uint64  `json:"cumulative"`
	Sum        float64   `json:"sum"`
	Count      uint64    `json:"count"`
}

// Snapshot copies the whole-run state under one lock acquisition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapshot(h.counts, h.sum, h.count)
}

// Window merges the last w (0 = full window) into a cumulative
// snapshot. An empty window yields a zero-count snapshot (NaN
// quantiles, zero FractionAbove).
func (h *Histogram) Window(w time.Duration) HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	merged := make([]uint64, len(h.buckets))
	var sum float64
	var count uint64
	h.w.recent(w, func(s *histSlot) {
		for i, c := range s.counts {
			merged[i] += c
		}
		sum += s.sum
		count += s.count
	})
	return h.snapshot(merged, sum, count)
}

// Series returns per-slot observation counts oldest→newest over the
// last w.
func (h *Histogram) Series(w time.Duration) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.w.series(w, func(s *histSlot) float64 { return float64(s.count) })
}

func (h *Histogram) snapshot(counts []uint64, sum float64, count uint64) HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:     append([]float64(nil), h.buckets...),
		Cumulative: make([]uint64, len(counts)),
		Sum:        sum,
		Count:      count,
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		s.Cumulative[i] = cum
	}
	return s
}

// Quantile estimates the q-quantile through a fresh Snapshot. All
// quantile math runs on the snapshot's copied bucket array — never on
// the live buckets — so concurrent Observe calls can at worst make the
// estimate one observation stale, not inconsistent.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucketed
// counts: the upper bound of the bucket holding the q-th observation,
// Prometheus histogram_quantile style. An empty snapshot returns NaN;
// a rank above the last finite bound returns +Inf (the observation
// landed in the overflow bucket, beyond the instrumented range).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	for i, c := range s.Cumulative {
		if c >= rank {
			return s.Bounds[i]
		}
	}
	return math.Inf(1)
}

// FractionAbove estimates the fraction of observations strictly above
// v, resolved at bucket granularity: observations in the bucket whose
// upper bound is the smallest bound ≥ v count as "at or below v".
// Callers alerting on latency thresholds should align the threshold
// with a bucket bound to avoid the quantisation. Returns 0 for an
// empty snapshot.
func (s HistogramSnapshot) FractionAbove(v float64) float64 {
	if s.Count == 0 {
		return 0
	}
	below := s.Count // v beyond the last bound: only the overflow bucket is above, and it is unbounded — count nothing as above
	for i, b := range s.Bounds {
		if b >= v {
			below = s.Cumulative[i]
			break
		}
	}
	return float64(s.Count-below) / float64(s.Count)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}
