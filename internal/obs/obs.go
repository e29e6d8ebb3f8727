// Package obs is flowmotif's dependency-free observability layer: a
// lock-cheap metrics registry (atomic counters, gauges, and fixed-boundary
// log-scale histograms), a Span/stage-timer API, snapshot readout with
// quantile estimation, cross-member snapshot merging, and a Prometheus
// text-format exposition writer (prometheus.go).
//
// Design constraints, in order:
//
//   - Hot-path cost. Instruments are resolved once at registration and
//     held as pointers; Observe/Add/Set are a handful of atomic ops with
//     no locks, no maps, and no allocation. The registry mutex is touched
//     only at registration and snapshot time.
//   - Nil safety. Every instrument method is a no-op on a nil receiver,
//     so callers wire `Config.DisableObs` by simply not creating the
//     instruments — no branches at every observation site.
//   - No dependencies. Everything here is stdlib; the exposition format
//     is written by hand.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one key=value dimension on a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// metric kinds, as reported in MetricSnapshot.Kind and the exposition
// `# TYPE` line.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotonically increasing value. All methods are safe on a
// nil receiver (no-ops).
type Counter struct {
	v atomic.Int64
}

// Add adds n (n must be >= 0; negative deltas are ignored to keep the
// counter monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float64 value, for quantities
// that accumulate in fractional units (attributed CPU seconds). It snapshots
// as a plain counter series. All methods are safe on a nil receiver.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add adds v (v must be >= 0; negative deltas are ignored to keep the
// counter monotonic). Lock-free: a CAS loop over the float bits.
func (c *FloatCounter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down. All methods are safe on a nil
// receiver (no-ops).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (either sign), for up/down quantities
// like in-flight request counts. Lock-free CAS over the float bits.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-boundary histogram with atomic bucket counts. The
// boundaries are upper bounds (`le` semantics): bucket i counts
// observations v <= bounds[i]; one implicit terminal bucket counts the
// rest (+Inf). Observe is lock-free: one binary search over the (small,
// immutable) bound slice, two atomic adds, and a CAS loop for the sum.
// All methods are safe on a nil receiver (no-ops / zero values).
type Histogram struct {
	bounds  []float64 // strictly increasing, finite
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	ex      atomic.Pointer[Exemplar]
}

// Exemplar links a histogram to one concrete traced observation, so a
// Prometheus quantile can be walked back to a span tree in
// /debug/traces. The slot keeps the worst (highest-valued) recent
// observation: a new exemplar replaces the old one when its value is at
// least as large, or when the old one has aged out (exemplarMaxAge) —
// slow-trace biased, but never pinned forever.
type Exemplar struct {
	Value    float64 `json:"value"`
	Trace    string  `json:"trace"`
	UnixNano int64   `json:"unix_nano"`
}

const exemplarMaxAge = time.Minute

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.ObserveN(v, 1)
	}
}

// ObserveN records n observations of the same value v at the cost of one:
// a single bucket add of n and a single sum update of n·v.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) if none
	h.counts[i].Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// ObserveExemplar records v and offers (v, trace) as the histogram's
// exemplar (see Exemplar for the replacement policy). An empty trace
// degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace == "" {
		return
	}
	now := time.Now().UnixNano()
	for {
		old := h.ex.Load()
		if old != nil && v < old.Value && now-old.UnixNano < int64(exemplarMaxAge) {
			return
		}
		if h.ex.CompareAndSwap(old, &Exemplar{Value: v, Trace: trace, UnixNano: now}) {
			return
		}
	}
}

// Start opens a Span ending in this histogram. On a nil receiver the
// returned Span is inert and End costs nothing (not even a clock read).
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// Snapshot returns a point-in-time copy of the histogram state. The
// bucket counts are loaded individually, not under a lock, so a snapshot
// taken during concurrent recording may be off by in-flight observations
// — fine for monitoring readout. The total Count is derived from the
// bucket counts, so a snapshot is always internally consistent (the
// exposition's +Inf bucket equals _count by construction).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	if ex := h.ex.Load(); ex != nil {
		cp := *ex
		s.Exemplar = &cp
	}
	return s
}

// Span measures one operation into a histogram. The zero Span is inert.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// End records the elapsed time and returns it (zero for an inert Span).
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.h.Observe(d.Seconds())
	return d
}

// ExpBuckets returns log-scale bucket upper bounds spanning [lo, hi] with
// perDecade bounds per factor of 10. lo and hi must be positive with
// lo < hi and perDecade >= 1; the final bound is >= hi.
func ExpBuckets(lo, hi float64, perDecade int) []float64 {
	if !(lo > 0) || !(hi > lo) || perDecade < 1 {
		panic("obs: ExpBuckets requires 0 < lo < hi and perDecade >= 1")
	}
	step := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for v := lo; ; v *= step {
		out = append(out, v)
		if v >= hi {
			return out
		}
	}
}

// LatencyBuckets is the default latency histogram layout: 1µs to 10s,
// four bounds per decade (~78% worst-case relative quantile error within
// a bucket, 29 buckets).
var LatencyBuckets = ExpBuckets(1e-6, 10, 4)

// SizeBuckets is the default size/count histogram layout: 1 to 1e6,
// two bounds per decade.
var SizeBuckets = ExpBuckets(1, 1e6, 2)

// Registry holds named instruments. Registration is idempotent: asking
// for the same (name, labels) again returns the existing instrument;
// asking for it under a different kind or bucket layout panics (a wiring
// bug, not a runtime condition).
type Registry struct {
	mu    sync.Mutex
	order []string // registration order of series keys
	byKey map[string]*series
}

type series struct {
	name   string
	help   string
	kind   string
	labels []Label
	ctr    *Counter
	fctr   *FloatCounter
	gauge  *Gauge
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*series{}}
}

// seriesKey is the identity of one series: name plus labels sorted by key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	if len(labels) <= 1 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup returns the series name{labels}, registering it on first use
// with newInstrument setting its instrument. Both happen under r.mu, so
// neither Snapshot nor a concurrent registration of the same series can
// see a series without its instrument.
func (r *Registry) lookup(name, help, kind string, labels []Label, newInstrument func(*series)) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Key, name))
		}
	}
	labels = sortedLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.byKey[key]; s != nil {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, s.kind))
		}
		return s
	}
	s := &series{name: name, help: help, kind: kind, labels: labels}
	newInstrument(s)
	r.byKey[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter returns (registering on first use) the counter series
// name{labels...}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, KindCounter, labels, func(s *series) { s.ctr = &Counter{} })
	if s.ctr == nil {
		panic(fmt.Sprintf("obs: float counter %q re-registered as counter", name))
	}
	return s.ctr
}

// FloatCounter returns (registering on first use) a float-valued counter
// series name{labels...}. It shares the counter kind with Counter — a
// series is one or the other, never both (asking for the same series under
// the other flavor panics, a wiring bug).
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, KindCounter, labels, func(s *series) { s.fctr = &FloatCounter{} })
	if s.fctr == nil {
		panic(fmt.Sprintf("obs: counter %q re-registered as float counter", name))
	}
	return s.fctr
}

// Gauge returns (registering on first use) the gauge series
// name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, labels, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// Histogram returns (registering on first use) the histogram series
// name{labels...} with the given bucket upper bounds (nil: the default
// LatencyBuckets). Bounds must be strictly increasing and finite; a
// re-registration with different bounds panics.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds must be finite and strictly increasing", name))
		}
	}
	s := r.lookup(name, help, KindHistogram, labels, func(s *series) {
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	})
	if !equalBounds(s.hist.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	return s.hist
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot returns every registered series, in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, len(r.order))
	copy(keys, r.order)
	byKey := make(map[string]*series, len(r.byKey))
	for k, s := range r.byKey {
		byKey[k] = s
	}
	r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(keys))
	for _, k := range keys {
		s := byKey[k]
		m := MetricSnapshot{Name: s.name, Help: s.help, Kind: s.kind, Labels: s.labels}
		switch s.kind {
		case KindCounter:
			if s.fctr != nil {
				m.Value = s.fctr.Value()
			} else {
				m.Value = float64(s.ctr.Value())
			}
		case KindGauge:
			m.Value = s.gauge.Value()
		case KindHistogram:
			h := s.hist.Snapshot()
			m.Hist = &h
		}
		out = append(out, m)
	}
	return out
}

// HistogramSnapshot is a point-in-time histogram readout: per-bucket
// counts (len(Bounds)+1, the last bucket is +Inf), total count, and sum.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	// Exemplar, when present, links the histogram to one concrete traced
	// observation (see Exemplar).
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the bucket
// holding the target rank and interpolating linearly within it, so the
// estimation error is bounded by the bucket width. Observations beyond
// the last finite bound clamp to it. Returns 0 on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1] // +Inf bucket: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*((rank-prev)/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge adds o's bucket counts into s. The bucket layouts must match
// (cluster members register identical instruments, so they do).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if len(s.Bounds) == 0 {
		s.Bounds = o.Bounds
		s.Counts = append([]uint64(nil), o.Counts...)
		s.Count = o.Count
		s.Sum = o.Sum
		s.Exemplar = o.Exemplar
		return nil
	}
	if !equalBounds(s.Bounds, o.Bounds) || len(s.Counts) != len(o.Counts) {
		return fmt.Errorf("obs: cannot merge histograms with different bucket layouts")
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Exemplar != nil && (s.Exemplar == nil || o.Exemplar.Value > s.Exemplar.Value) {
		s.Exemplar = o.Exemplar
	}
	return nil
}

// MetricSnapshot is one series in a Snapshot: a counter or gauge Value,
// or a histogram readout.
type MetricSnapshot struct {
	Name   string             `json:"name"`
	Help   string             `json:"help,omitempty"`
	Kind   string             `json:"kind"`
	Labels []Label            `json:"labels,omitempty"`
	Value  float64            `json:"value,omitempty"`
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

// Accum merges metric snapshots from several sources (e.g. cluster
// members) into one exposition set. Counters and histograms with
// identical (name, labels) are summed / bucket-merged; gauges are kept
// per-source by appending the extra labels given to Add (a merged gauge
// has no meaning — a watermark summed across members is nonsense).
type Accum struct {
	order []string
	byKey map[string]*MetricSnapshot
}

// NewAccum returns an empty accumulator.
func NewAccum() *Accum {
	return &Accum{byKey: map[string]*MetricSnapshot{}}
}

// Add merges one source's snapshots. gaugeLabels (e.g. member="m1") are
// appended to gauge series only, keeping them distinguishable per source;
// counters and histograms merge across sources under their original
// labels. Histograms whose bucket layouts disagree keep the first layout
// and drop the mismatched source (wiring bug; exposition stays valid).
func (a *Accum) Add(snaps []MetricSnapshot, gaugeLabels ...Label) {
	for _, m := range snaps {
		labels := m.Labels
		if m.Kind == KindGauge && len(gaugeLabels) > 0 {
			labels = sortedLabels(append(append([]Label(nil), labels...), gaugeLabels...))
		}
		key := m.Kind + ":" + seriesKey(m.Name, labels)
		have := a.byKey[key]
		if have == nil {
			cp := m
			cp.Labels = labels
			if m.Hist != nil {
				h := HistogramSnapshot{}
				if h.Merge(*m.Hist) == nil {
					cp.Hist = &h
				}
			}
			a.byKey[key] = &cp
			a.order = append(a.order, key)
			continue
		}
		switch m.Kind {
		case KindHistogram:
			if m.Hist != nil && have.Hist != nil {
				_ = have.Hist.Merge(*m.Hist) // layout mismatch: keep first
			}
		case KindGauge:
			have.Value = m.Value // same source re-added: last wins
		default:
			have.Value += m.Value
		}
	}
}

// Snapshots returns the merged set in first-seen order.
func (a *Accum) Snapshots() []MetricSnapshot {
	out := make([]MetricSnapshot, 0, len(a.order))
	for _, k := range a.order {
		out = append(out, *a.byKey[k])
	}
	return out
}
