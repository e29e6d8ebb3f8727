// Package stream detects flow motifs online, as interaction events arrive,
// instead of over a frozen snapshot. It exploits the paper's key locality
// property (Kosyfaki et al., EDBT 2019, Definition 3.1): every instance of
// a motif with duration constraint δ is confined to a δ-window anchored at
// its first event. Once the stream watermark W (the largest timestamp seen)
// passes ts+δ, the window anchored at ts can never gain another event, so
// the engine can
//
//   - finalize windows in anchor order: each ingest advances a per-
//     subscription "emitted-through" anchor bound A to W-δ-1 and enumerates
//     only the newly closed anchor band (A, W-δ-1] — what
//     core.EnumerateRange would report for it, computed for all
//     subscriptions together by the planner (planner.go) — over a snapshot
//     restricted to (A-δ, W-1], the frontier touched by recent events,
//     rather than re-running batch search;
//   - evict events older than A-δ from the retention log (temporal.
//     WindowLog), bounding memory by the event rate times max δ, not the
//     stream length.
//
// The emitted maximal instances are therefore exactly those the batch
// FindInstances reports on the full event log (see the equivalence oracle
// in stream_test.go); detections flow to a pluggable Sink as soon as their
// window closes.
//
// Engines serialize Ingest/Flush internally and are safe for concurrent
// use; cmd/flowmotifd serves one engine over HTTP (internal/server).
package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/temporal"
)

// Subscription asks the engine to detect one motif under one (δ, φ)
// setting. ID must be unique within an engine; it tags detections.
type Subscription struct {
	ID    string
	Motif *motif.Motif
	Delta int64   // duration constraint δ (>= 0)
	Phi   float64 // per-edge-set minimum flow φ (>= 0)
}

// Config parameterizes an Engine.
type Config struct {
	// Subs are the motif subscriptions; at least one is required.
	Subs []Subscription
	// Obs is the metrics registry the engine's stage and detection-lag
	// histograms register into; nil creates a private registry (readable
	// via Engine.Obs) unless DisableObs is set.
	Obs *obs.Registry
	// DisableObs turns engine instrumentation off entirely — no metrics, no
	// spans, no cost attribution, and no clock reads on the ingest path
	// unless Logger and SlowRound ask for slow-round warnings
	// (bench/e2e's obs.stack_overhead_frac compares against this).
	DisableObs bool
	// Logger receives structured engine logs (currently slow-round
	// warnings); nil disables logging.
	Logger *slog.Logger
	// SlowRound, when positive, logs a warning with the stage breakdown
	// for any finalize round that takes longer than this (Logger set) and
	// retains the round's trace in the flight recorder (tracing on).
	SlowRound time.Duration
	// Tracer is the flight recorder every ingest batch's span tree records
	// into; nil creates a private tracer (readable via Engine.Tracer)
	// unless DisableObs is set. See DESIGN.md §13.
	Tracer *obs.Tracer
}

// Detection is one finalized maximal motif instance, self-contained (it
// embeds the matched events, not indices into some graph snapshot). The
// struct itself belongs to whoever receives it; Nodes, Edges and EdgeFlows
// are read-only: an instance that several subscriptions of a plan group
// admit is copied out once, and their detections point at the same
// payload arrays.
type Detection struct {
	Sub        string             `json:"sub"`
	Motif      string             `json:"motif"`
	Nodes      []temporal.NodeID  `json:"nodes"`
	Edges      [][]temporal.Point `json:"edges"` // events per motif edge, time-ordered
	EdgeFlows  []float64          `json:"edgeFlows"`
	Flow       float64            `json:"flow"`  // min over EdgeFlows
	Start      int64              `json:"start"` // anchor timestamp
	End        int64              `json:"end"`
	DetectedAt int64              `json:"detectedAt"` // watermark when the window closed
}

// Sink receives detections. Emit is called with a freshly allocated
// Detection that the sink may retain and whose scalar fields it may set,
// but whose Nodes, Edges and EdgeFlows it must not write through — they
// may be shared with detections of other subscriptions (see Detection).
// The engine hands each call's finalized detections to its sink in one
// drain, outside its ingestion lock: a plain sink gets every detection
// through Emit, in finalization order (planGroup), so the same batches
// give the same sequence. The package's serving sinks — MemorySink,
// TopKSink, and a MultiSink holding them — read the drain as a whole
// instead and build only the detections their readers get: TopKSink those
// it keeps, MemorySink those still in its ring when it is read (a round
// that fills the ring by itself stays there as records until then). Each
// updates under one lock acquisition per drain, so its readers see a drain
// entirely or not at all. A sink may query the engine (Stats, Watermark, Subscriptions)
// from within Emit, but must not call Ingest or Flush there
// (self-deadlock).
type Sink interface {
	Emit(d *Detection)
}

// ErrFailStopped is wrapped by Ingest errors after the engine fail-stopped:
// a batch append failed partway through, so the retention log holds a
// prefix of a batch that was never finalized and further ingestion could
// only widen the divergence. Like the cluster WAL-poison path, the engine
// rejects all later ingests and flushes; recovery is a restart from the
// durable log/snapshot (or a fresh engine). Test with errors.Is.
var ErrFailStopped = errors.New("stream: engine fail-stopped after a partial batch append")

// SubStats reports per-subscription progress.
type SubStats struct {
	ID             string  `json:"id"`
	Motif          string  `json:"motif"`
	Shape          string  `json:"shape"` // canonical shape key (plan-group member)
	Delta          int64   `json:"delta"`
	Phi            float64 `json:"phi"`
	Detections     int64   `json:"detections"`
	Bands          int64   `json:"bands"`          // finalized anchor bands enumerated
	EmittedThrough int64   `json:"emittedThrough"` // anchors <= this are finalized
	// Cost is the subscription's attributed-cost account (DESIGN.md §14);
	// zero when attribution is off.
	Cost SubCost `json:"cost"`
}

// Stats reports engine progress.
type Stats struct {
	EventsIngested int64 `json:"eventsIngested"`
	EventsRetained int   `json:"eventsRetained"`
	EventsEvicted  int64 `json:"eventsEvicted"`
	Batches        int64 `json:"batches"`
	Watermark      int64 `json:"watermark"`
	Started        bool  `json:"started"` // at least one event ingested
	Detections     int64 `json:"detections"`
	// Shared-evaluation planner gauges (DESIGN.md §11). SnapshotReuse is
	// anchor bands enumerated per snapshot built — 1.0 means no sharing
	// (the pre-planner cost), N means one snapshot served N subscription
	// bands. MatchRuns counts phase-P1 walks run: one per finalize round,
	// whatever the number of shapes, so it equals SnapshotBuilds.
	// MatchesShared counts structural matches served from a shared
	// per-shape list beyond their first consumer — work the pre-planner
	// engine would have recomputed.
	PlanGroups     int        `json:"planGroups"`
	SnapshotBuilds int64      `json:"snapshotBuilds"`
	SnapshotReuse  float64    `json:"snapshotReuse"`
	MatchRuns      int64      `json:"matchRuns"`
	MatchesShared  int64      `json:"matchesShared"`
	Subs           []SubStats `json:"subs"`
	// Cost is the engine-level attribution account and Groups the per-plan-
	// group breakdown (DESIGN.md §14); zero/absent when attribution is off.
	Cost   EngineCostStats  `json:"cost"`
	Groups []GroupCostStats `json:"groups,omitempty"`
}

type subState struct {
	sub        Subscription
	emitted    int64 // anchor bound A: anchors <= A finalized; valid once primed
	primed     bool
	detections int64
	bands      int64
	bandEmits  int64        // detections of its latest band (sweepBand scratch)
	cost       subCostState // attribution account (cost.go)
}

// Engine is the streaming motif detector.
type Engine struct {
	mu   sync.Mutex // guards all engine state below
	log  *temporal.WindowLog
	sink Sink
	subs []*subState

	// Shared-evaluation planner state (planner.go): subscriptions grouped
	// by (shape, δ); the arena, per-shape match slabs and round scratch
	// recycling snapshot, phase-P1 and bookkeeping storage across finalize
	// rounds; and the sharing counters surfaced through Stats.
	groups         []*planGroup
	groupIdx       map[planKey]*planGroup
	arena          temporal.GraphArena
	slabs          []*core.MatchSlab
	round          roundScratch
	snapshotBuilds int64
	matchRuns      int64
	matchesShared  int64
	bandsTotal     int64

	gate       temporal.Gate // the stream contract: order, validity, frontier
	maxDelta   int64         // largest subscription δ
	batches    int64
	detections int64
	failErr    error // fail-stop poison: set after a partial batch append

	// Instrumentation (obs.go). obsReg is the registry (nil when
	// Config.DisableObs); mx holds the engine's histograms; arrivedAt is
	// the wall-clock the in-flight Ingest/Flush entered at, read by
	// emitPending for the detection-lag histogram (serialized by
	// ingestMu).
	obsReg    *obs.Registry
	mx        *engineMetrics //flowmotif:obsgate
	logger    *slog.Logger   //flowmotif:obsgate
	slowRound time.Duration  //flowmotif:obsgate
	arrivedAt time.Time

	// Cost attribution (cost.go, DESIGN.md §14), on with mx:
	// attribNs/roundNs/costRounds are the engine-level attributed-vs-
	// measured account the oracle test compares.
	attribNs   int64
	roundNs    int64
	costRounds int64

	// Tracing (DESIGN.md §13). tracer is immutable after construction
	// (nil: tracing off); curSpan is the in-flight call's root span,
	// parent of the finalize-round spans — set under mu just before
	// finalize, cleared by emitPending.
	tracer  *obs.Tracer
	curSpan *obs.TraceSpan

	scratch []temporal.Event // reused per-batch sort buffer
	out     detRound         // the call's finalized instances as records, drained after mu release (round.go)

	// appendHook, when set (tests only), runs before the i-th event of a
	// batch is appended; an error simulates a mid-batch append failure.
	appendHook func(i int) error

	// ingestMu serializes whole Ingest/Flush calls including sink
	// emission, and is always acquired BEFORE mu (never the reverse).
	// Emission happens with mu released, so sinks can query the engine;
	// readers (Stats, Watermark, Subscriptions) take only mu.
	ingestMu sync.Mutex
}

// NewEngine builds an engine over the given subscriptions and sink (which
// may be nil to discard detections). An engine may start with no
// subscriptions — a cluster member awaiting placement — and gain them at
// runtime via AddSubscription.
func NewEngine(cfg Config, sink Sink) (*Engine, error) {
	e := &Engine{
		log:       temporal.NewWindowLog(),
		sink:      sink,
		groupIdx:  map[planKey]*planGroup{},
		gate:      temporal.OpenGate(),
		logger:    cfg.Logger,
		slowRound: cfg.SlowRound,
	}
	if !cfg.DisableObs {
		e.obsReg = cfg.Obs
		if e.obsReg == nil {
			e.obsReg = obs.NewRegistry()
		}
		e.mx = newEngineMetrics(e.obsReg)
		e.tracer = cfg.Tracer
		if e.tracer == nil {
			e.tracer = obs.NewTracer(0)
		}
	}
	for i, s := range cfg.Subs {
		st, err := e.newSubState(s)
		if err != nil {
			return nil, fmt.Errorf("stream: subscription %d: %w", i, err)
		}
		e.enterGroupLocked(st)
	}
	return e, nil
}

// newSubState validates one subscription against the current set. The
// caller holds mu (or the engine is under construction).
func (e *Engine) newSubState(s Subscription) (*subState, error) {
	if s.Motif == nil {
		return nil, errors.New("nil motif")
	}
	if s.Delta < 0 || s.Phi < 0 {
		return nil, errors.New("Delta and Phi must be non-negative")
	}
	if s.ID == "" {
		s.ID = s.Motif.Name()
	}
	for _, have := range e.subs {
		if have.sub.ID == s.ID {
			return nil, fmt.Errorf("duplicate subscription id %q", s.ID)
		}
	}
	return &subState{sub: s}, nil
}

// Ack summarizes what one Ingest or Flush call did: how many events were
// applied, the watermark afterwards, and how many detections the call
// finalized. It is the engine-level acknowledgement the serving and
// cluster layers relay upstream (the replication pipeline's ack-watermark
// tracking rides on it).
type Ack struct {
	Ingested   int   `json:"ingested"`
	Watermark  int64 `json:"watermark"`
	Started    bool  `json:"started"`
	Detections int64 `json:"detections"`
	// Trace is the batch's trace ID in the flight recorder ("" with
	// tracing off): the key into /debug/traces for this batch's span tree.
	Trace string `json:"trace,omitempty"`
}

// Ingest appends a batch of events and finalizes every window the advanced
// watermark closes, emitting its maximal instances to the sink. The batch
// is sorted by timestamp internally; it must not reach behind the current
// watermark (the stream contract: events arrive in time order, batches may
// be internally unordered). The engine's temporal.Gate admits the batch
// all-or-nothing: on error (temporal.ErrBehindFrontier,
// temporal.ErrInvalidEvent) no event of it is ingested. Returns the number
// of events ingested.
func (e *Engine) Ingest(events []temporal.Event) (int, error) {
	ack, err := e.IngestWithAck(events)
	return ack.Ingested, err
}

// IngestWithAck is Ingest returning the full acknowledgement — the new
// watermark and the detections this batch finalized — in one call, without
// the caller having to diff two Stats snapshots around the ingest (which
// would need external serialization to be meaningful).
func (e *Engine) IngestWithAck(events []temporal.Event) (Ack, error) {
	return e.IngestTraced(events, obs.SpanContext{})
}

// IngestTraced is IngestWithAck under a trace context: with tracing on,
// the call's span tree (engine.ingest → finalize.round → stage spans →
// finalize.emit) records into the flight recorder as a child of parent —
// the replication deliver span, via W3C traceparent over the wire — or as
// a new root trace when parent is zero. The ack carries the trace ID.
//
//flowmotif:hotpath
func (e *Engine) IngestTraced(events []temporal.Event, parent obs.SpanContext) (Ack, error) {
	if len(events) == 0 {
		e.mu.Lock()
		if err := e.failedLocked(); err != nil {
			e.mu.Unlock()
			return Ack{}, err
		}
		w, ok := e.log.Watermark()
		e.mu.Unlock()
		return Ack{Watermark: w, Started: ok}, nil
	}
	var arrived time.Time
	if e.mx != nil {
		// Captured before any lock wait: detection lag is arrival → emit,
		// including queueing behind in-flight ingests.
		arrived = time.Now()
	}
	// The root span likewise opens before the lock wait, so queueing
	// behind in-flight ingests is on the trace.
	var root *obs.TraceSpan
	if e.tracer != nil {
		root = e.tracer.StartSpan("engine.ingest", parent,
			obs.L("events", strconv.Itoa(len(events))))
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.mu.Lock()
	if err := e.failedLocked(); err != nil {
		e.mu.Unlock()
		endSpanErr(root, err)
		return Ack{}, err
	}
	e.arrivedAt = arrived

	// The batch is only read (the log copies events on append), so an
	// already ordered one is used in place; an unordered one is sorted
	// into the reusable scratch buffer.
	batch, err := e.gate.Admit(events, &e.scratch)
	if err != nil {
		err = fmt.Errorf("stream: %w", err)
		e.mu.Unlock()
		endSpanErr(root, err)
		return Ack{}, err
	}
	for i := range batch {
		if err := e.appendEvent(batch[i], i); err != nil {
			// The batch was validated above, so this is unreachable in
			// practice — but if it ever fires the log now holds an
			// unfinalized batch prefix. Fail-stop (poison) the engine so no
			// later call can build on the diverged state; the durable
			// recovery path (snapshot + WAL replay into a fresh engine) is
			// the way back.
			e.failErr = fmt.Errorf("append event %d of %d: %w", i, len(batch), err)
			err := fmt.Errorf("%w: %v", ErrFailStopped, e.failErr)
			e.mu.Unlock()
			endSpanErr(root, err)
			return Ack{Ingested: i}, err
		}
	}
	first := batch[0].T
	for _, s := range e.subs {
		if !s.primed {
			// No anchor can precede the first event ever seen.
			s.emitted = satSub(first, 1)
			s.primed = true
		}
	}
	w, _ := e.log.Watermark()
	e.gate.Advance(w)
	e.batches++

	n := len(batch)
	e.curSpan = root
	e.finalize(false)
	e.evict()
	ack := Ack{Ingested: n, Watermark: w, Started: true, Detections: int64(e.out.n), Trace: root.Context().Trace}
	e.emitPending() // unlocks mu; ends and clears curSpan
	return ack, nil
}

// Flush finalizes every still-open window at the current watermark W.
// Flushing forecloses windows that could otherwise still have grown, so
// afterwards ingested events must be strictly newer than W plus the
// largest subscription δ: anything closer could have landed inside an
// already-emitted window, and accepting it would break the batch
// equivalence. A flush is therefore an end-of-stream marker (or a
// deliberate gap), not a peek at pending results.
func (e *Engine) Flush() {
	e.FlushWithAck()
}

// FlushWithAck is Flush returning the acknowledgement: the watermark the
// stream ended at and how many detections the flush finalized. On a
// fail-stopped engine the flush is an inert zero ack (the signature has no
// error); callers that must distinguish poisoned from empty check Err.
func (e *Engine) FlushWithAck() Ack {
	return e.FlushTraced(obs.SpanContext{})
}

// FlushTraced is FlushWithAck under a trace context (see IngestTraced).
//
//flowmotif:hotpath
func (e *Engine) FlushTraced(parent obs.SpanContext) Ack {
	var arrived time.Time
	if e.mx != nil {
		arrived = time.Now()
	}
	root := e.tracer.StartSpan("engine.flush", parent)
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.mu.Lock()
	w, ok := e.log.Watermark()
	if !ok || e.failErr != nil {
		// A fail-stopped engine must not foreclose windows over its
		// diverged log; the flush is a no-op (see ErrFailStopped).
		e.mu.Unlock()
		root.End()
		return Ack{}
	}
	e.arrivedAt = arrived
	e.curSpan = root
	e.finalize(true)
	e.gate.Flushed(w, e.maxDelta)
	e.evict()
	ack := Ack{Watermark: w, Started: true, Detections: int64(e.out.n), Trace: root.Context().Trace}
	e.emitPending() // unlocks mu; ends and clears curSpan
	return ack
}

// emitPending drains the round finalized by the current call to the sink,
// whole, in one call (round.go): the serving sinks materialize only the
// detections their readers get (the ring's, when it is read), any other
// sink receives every one in finalization order. It must be entered with both ingestMu and mu held; it releases mu
// before touching the sink, so sinks run outside the state lock (they may
// read engine state) while the surrounding ingestMu preserves finalization
// order across concurrent callers and keeps the next round from reusing the
// records and the snapshot they point into before the drain ends.
func (e *Engine) emitPending() {
	n := e.out.n
	arrived := e.arrivedAt
	root := e.curSpan
	e.curSpan = nil
	e.mu.Unlock()
	if n == 0 {
		root.End()
		return
	}
	// The emit span is the sink drain — the last span of the batch's
	// trace; its end closes the trace. Only under a live root: paths with
	// no batch trace (AddSubscription catch-up) emit untraced.
	var es *obs.TraceSpan
	if root != nil {
		es = e.tracer.StartSpan("finalize.emit", root.Context(),
			obs.L("detections", strconv.Itoa(n)))
	}
	var emitH, lagH *obs.Histogram
	if e.mx != nil {
		emitH, lagH = e.mx.stageEmit, e.mx.detectionLag
	}
	sp := emitH.Start()
	e.out.emit(e.sink)
	d := sp.End()
	es.End()
	if e.mx != nil {
		e.mu.Lock()
		e.chargeDrainLocked(d, time.Now())
		e.mu.Unlock()
	}
	if lagH != nil && !arrived.IsZero() {
		// All of the batch's detections reach the sink in this one drain;
		// they share the batch's arrival → emit lag. The first observation
		// offers the batch's trace as the histogram exemplar.
		lag := time.Since(arrived).Seconds()
		lagH.ObserveExemplar(lag, root.Context().Trace)
		lagH.ObserveN(lag, uint64(n-1))
	}
	if root != nil {
		root.Annotate(obs.L("detections", strconv.Itoa(n)))
	}
	root.End()
}

// endSpanErr finishes a span with the error recorded (nil-safe both ways).
func endSpanErr(s *obs.TraceSpan, err error) {
	if s != nil && err != nil {
		s.Annotate(obs.L("error", err.Error()))
	}
	s.End()
}

// failedLocked returns the wrapped fail-stop error when the engine is
// poisoned (nil otherwise). The caller holds mu. Every mutating entry
// point — ingest, flush, subscription add/remove — checks it, so no call
// can build on (or export) the diverged log.
func (e *Engine) failedLocked() error {
	if e.failErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrFailStopped, e.failErr)
}

// appendEvent appends one batch event to the retention log, routed through
// the test-only failure hook.
func (e *Engine) appendEvent(ev temporal.Event, i int) error {
	if e.appendHook != nil {
		if err := e.appendHook(i); err != nil {
			return err
		}
	}
	return e.log.Append(ev)
}

// evict drops events no subscription can ever need again: everything
// older than min over subscriptions of A-δ.
func (e *Engine) evict() {
	keep := int64(math.MaxInt64)
	for _, s := range e.subs {
		if !s.primed {
			return
		}
		if edge := satSub(s.emitted, s.sub.Delta); edge < keep {
			keep = edge
		}
	}
	e.log.EvictBefore(keep)
}

// Err reports the engine's fail-stop poison: nil while healthy, an error
// wrapping ErrFailStopped after a partial batch append. The serving and
// cluster layers check it so error-less entry points (Flush) still
// surface the broken engine instead of an empty success.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failedLocked()
}

// Obs returns the engine's metrics registry: the one from Config.Obs, or
// the private registry created when none was given. Nil when the engine
// was built with Config.DisableObs.
func (e *Engine) Obs() *obs.Registry {
	return e.obsReg
}

// Tracer returns the engine's flight recorder: the one from
// Config.Tracer, or the private tracer created when none was given. Nil
// when tracing is off (Config.DisableObs).
func (e *Engine) Tracer() *obs.Tracer {
	return e.tracer
}

// Watermark returns the largest ingested timestamp (ok false before the
// first event).
func (e *Engine) Watermark() (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Watermark()
}

// Stats snapshots engine progress.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	w, ok := e.log.Watermark()
	st := Stats{
		EventsIngested: e.log.Appended(),
		EventsRetained: e.log.Len(),
		EventsEvicted:  e.log.Evicted(),
		Batches:        e.batches,
		Watermark:      w,
		Started:        ok,
		Detections:     e.detections,
		PlanGroups:     len(e.groups),
		SnapshotBuilds: e.snapshotBuilds,
		MatchRuns:      e.matchRuns,
		MatchesShared:  e.matchesShared,
	}
	if e.snapshotBuilds > 0 {
		st.SnapshotReuse = float64(e.bandsTotal) / float64(e.snapshotBuilds)
	}
	for _, s := range e.subs {
		st.Subs = append(st.Subs, SubStats{
			ID:             s.sub.ID,
			Motif:          s.sub.Motif.Name(),
			Shape:          s.sub.Motif.ShapeKey(),
			Delta:          s.sub.Delta,
			Phi:            s.sub.Phi,
			Detections:     s.detections,
			Bands:          s.bands,
			EmittedThrough: s.emitted,
		})
	}
	e.costStatsLocked(&st)
	return st
}

// Subscriptions returns the engine's subscriptions (IDs resolved).
func (e *Engine) Subscriptions() []Subscription {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Subscription, len(e.subs))
	for i, s := range e.subs {
		out[i] = s.sub
	}
	return out
}

func satAdd(a, b int64) int64 { return temporal.SatAdd(a, b) }

func satSub(a, b int64) int64 { return temporal.SatSub(a, b) }
