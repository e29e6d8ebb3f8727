// trace.go is flowmotif's dependency-free distributed tracer: 128-bit
// trace / 64-bit span IDs with parent links and per-span attributes,
// recorded into a fixed-size per-tracer ring buffer (the "flight
// recorder" — always on, fixed memory, nothing to export to), W3C
// traceparent propagation for the internal HTTP hops, and tail-sampling
// retention so traces that breached a latency threshold survive ring
// wraparound. Span starts are lock-free (atomic ID generation + a clock
// read); the only lock is one short mutex hold when a finished span is
// copied into the ring.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// idState is the process-wide ID generator: a crypto-seeded counter
// stepped by a large odd constant and finalized with splitmix64, giving
// unique, well-distributed IDs with one atomic add per 8 bytes and no
// locking.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

func nextID64() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 { // all-zero IDs are invalid in W3C trace context
		x = 1
	}
	return x
}

// NewTraceID returns a fresh 32-hex-digit trace ID.
func NewTraceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], nextID64())
	binary.BigEndian.PutUint64(b[8:], nextID64())
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 16-hex-digit span ID.
func NewSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], nextID64())
	return hex.EncodeToString(b[:])
}

// SpanContext identifies a position in a trace: the trace and the span
// that any child spans should parent to. The zero value is "no trace".
type SpanContext struct {
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// Valid reports whether the context carries a usable trace and span ID.
func (sc SpanContext) Valid() bool {
	return len(sc.Trace) == 32 && len(sc.Span) == 16 && !allZeroHex(sc.Trace) && !allZeroHex(sc.Span)
}

func allZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// Traceparent renders the context in W3C trace-context format
// ("00-<trace>-<span>-01", sampled flag always set — the flight recorder
// records everything). Returns "" for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.Trace + "-" + sc.Span + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. Unknown future
// versions are accepted as long as the version-00 prefix fields parse
// (per the spec's forward-compatibility rule); malformed values return
// ok=false and a zero context.
func ParseTraceparent(s string) (sc SpanContext, ok bool) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if !isHex(s[:2]) || s[:2] == "ff" {
		return SpanContext{}, false
	}
	if len(s) > 55 && (s[:2] == "00" || s[55] != '-') {
		return SpanContext{}, false
	}
	sc = SpanContext{Trace: s[3:35], Span: s[36:52]}
	if !isHex(sc.Trace) || !isHex(sc.Span) || !isHex(s[53:55]) || !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// SpanRecord is one finished span as stored in the flight recorder and
// served by /debug/traces. Times are Unix nanoseconds so records stitch
// across processes without timezone or monotonic-clock baggage.
type SpanRecord struct {
	Trace  string  `json:"trace"`
	Span   string  `json:"span"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_unix_nano"`
	End    int64   `json:"end_unix_nano"`
	Attrs  []Label `json:"attrs,omitempty"`
}

const (
	// DefaultTraceCapacity is the flight-recorder ring size (spans).
	DefaultTraceCapacity = 4096
	// maxRetainedTraces bounds the tail-sampling store (traces).
	maxRetainedTraces = 64
	// maxRetainedSpans bounds one retained trace's span list.
	maxRetainedSpans = 1024
	// maxSpanAttrs bounds per-span attributes (defensive).
	maxSpanAttrs = 16
)

// Tracer records finished spans into a fixed-size ring buffer and keeps
// a bounded side store of "retained" traces (tail sampling: traces that
// breached a latency threshold survive ring wraparound). All methods are
// safe for concurrent use and safe on a nil receiver, so callers wire
// tracing off by simply not creating the tracer.
type Tracer struct {
	mu       sync.Mutex
	ring     []SpanRecord
	next     int    // ring write cursor
	total    uint64 // spans ever recorded
	retained map[string][]SpanRecord
	retOrder []string // retention order, oldest first
}

// NewTracer returns a tracer whose ring holds capacity spans
// (capacity <= 0: DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		ring:     make([]SpanRecord, 0, capacity),
		retained: map[string][]SpanRecord{},
	}
}

// TraceSpan is one in-flight span. End records it into the tracer's
// ring; both Start and End are cheap enough to leave on in production.
// A nil *TraceSpan is inert (all methods are no-ops), so call sites
// need no tracing-enabled branches.
type TraceSpan struct {
	t     *Tracer
	sc    SpanContext
	rec   SpanRecord
	t0    time.Time
	ended atomic.Bool
}

// StartSpan opens a span. A valid parent puts the span in the parent's
// trace with a parent link; an invalid (zero) parent starts a new trace
// with this span as root. Safe on a nil tracer (returns an inert span).
func (t *Tracer) StartSpan(name string, parent SpanContext, attrs ...Label) *TraceSpan {
	if t == nil {
		return nil
	}
	sc := SpanContext{Span: NewSpanID()}
	var parentID string
	if parent.Valid() {
		sc.Trace = parent.Trace
		parentID = parent.Span
	} else {
		sc.Trace = NewTraceID()
	}
	if len(attrs) > maxSpanAttrs {
		attrs = attrs[:maxSpanAttrs]
	}
	now := time.Now()
	return &TraceSpan{
		t:  t,
		sc: sc,
		t0: now,
		rec: SpanRecord{
			Trace:  sc.Trace,
			Span:   sc.Span,
			Parent: parentID,
			Name:   name,
			Start:  now.UnixNano(),
			Attrs:  append([]Label(nil), attrs...),
		},
	}
}

// Context returns the span's context (zero for an inert span) — pass it
// to child StartSpan calls or render it with Traceparent for the wire.
func (s *TraceSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Annotate appends attributes to the span (before End; no-op after).
func (s *TraceSpan) Annotate(attrs ...Label) {
	if s == nil || s.ended.Load() {
		return
	}
	if room := maxSpanAttrs - len(s.rec.Attrs); room < len(attrs) {
		attrs = attrs[:max(room, 0)]
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// End finishes the span and records it into the flight recorder.
// Idempotent: second and later calls are no-ops. Returns the span's
// duration (zero for an inert span or a repeated End).
func (s *TraceSpan) End() time.Duration {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := time.Since(s.t0)
	s.rec.End = s.rec.Start + d.Nanoseconds()
	s.t.record(s.rec)
	return d
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	if spans, ok := t.retained[rec.Trace]; ok && len(spans) < maxRetainedSpans {
		t.retained[rec.Trace] = append(spans, rec)
	}
	t.mu.Unlock()
}

// Retain marks a trace for tail-sampling retention: its spans already in
// the ring are copied to the retained store, and spans that finish later
// are appended as they end — so the trace survives ring wraparound. The
// store is bounded (oldest retained trace evicted beyond
// maxRetainedTraces). No-op on a nil tracer or an empty trace ID.
func (t *Tracer) Retain(trace string) {
	if t == nil || trace == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.retained[trace]; ok {
		return
	}
	var spans []SpanRecord
	for i := range t.ring {
		if t.ring[i].Trace == trace {
			spans = append(spans, t.ring[i])
		}
	}
	t.retained[trace] = spans
	t.retOrder = append(t.retOrder, trace)
	for len(t.retOrder) > maxRetainedTraces {
		delete(t.retained, t.retOrder[0])
		t.retOrder = t.retOrder[1:]
	}
}

// Total returns the number of spans ever recorded (not just resident).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns every resident span of one trace (ring + retained
// store, deduplicated), sorted by start time. Nil if the trace is gone.
func (t *Tracer) Spans(trace string) []SpanRecord {
	if t == nil || trace == "" {
		return nil
	}
	t.mu.Lock()
	seen := make(map[string]bool, 16)
	var out []SpanRecord
	for _, rec := range t.retained[trace] {
		if !seen[rec.Span] {
			seen[rec.Span] = true
			out = append(out, rec)
		}
	}
	for i := range t.ring {
		if rec := t.ring[i]; rec.Trace == trace && !seen[rec.Span] {
			seen[rec.Span] = true
			out = append(out, rec)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TraceSummary is one trace's /debug/traces listing entry.
type TraceSummary struct {
	Trace    string `json:"trace"`
	Root     string `json:"root"` // root span name ("" if the root is gone)
	Start    int64  `json:"start_unix_nano"`
	Duration int64  `json:"duration_nano"` // max(end) - min(start) over resident spans
	Spans    int    `json:"spans"`
	Retained bool   `json:"retained,omitempty"`
}

// Summaries lists resident traces, newest first ("recent") or by
// descending duration ("slowest"), at most limit entries (limit <= 0:
// no cap). Retained traces are included even after their ring spans
// were overwritten.
func (t *Tracer) Summaries(limit int, slowest bool) []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	byTrace := map[string]*TraceSummary{}
	var order []string
	add := func(rec SpanRecord, retained bool) {
		s := byTrace[rec.Trace]
		if s == nil {
			s = &TraceSummary{Trace: rec.Trace, Start: rec.Start, Retained: retained}
			byTrace[rec.Trace] = s
			order = append(order, rec.Trace)
		}
		s.Spans++
		s.Retained = s.Retained || retained
		if rec.Start < s.Start {
			s.Start = rec.Start
		}
		if end := rec.End - s.Start; end > s.Duration {
			s.Duration = end
		}
		if rec.Parent == "" && s.Root == "" {
			s.Root = rec.Name
		}
	}
	seen := map[string]bool{}
	for _, trace := range t.retOrder {
		for _, rec := range t.retained[trace] {
			seen[rec.Span] = true
			add(rec, true)
		}
	}
	for i := range t.ring {
		if rec := t.ring[i]; !seen[rec.Span] {
			add(rec, false)
		}
	}
	t.mu.Unlock()
	out := make([]TraceSummary, 0, len(order))
	for _, id := range order {
		out = append(out, *byTrace[id])
	}
	if slowest {
		sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	} else {
		sort.Slice(out, func(i, j int) bool { return out[i].Start > out[j].Start })
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// SpanNode is one node of a rendered span tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree arranges one trace's spans into parent/child trees.
// Spans whose parent is not in the set (the true root, or a span held by
// another process before stitching) become roots. Roots and children are
// ordered by start time.
func BuildSpanTree(spans []SpanRecord) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	ordered := make([]*SpanNode, 0, len(spans))
	for _, rec := range spans {
		if nodes[rec.Span] != nil {
			continue // duplicate (e.g. stitched from two sources)
		}
		n := &SpanNode{SpanRecord: rec}
		nodes[rec.Span] = n
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	var roots []*SpanNode
	for _, n := range ordered {
		if p := nodes[n.Parent]; p != nil && n.Parent != n.Span {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}
