package stream

// Engine instrumentation (internal/obs). The engine records, per finalize
// round, a stage breakdown histogram — snapshot build, phase-P1 match
// run, per-group phase-P2 sweeps, sink emit — plus the end-to-end
// detection lag (batch arrival wall-clock → detection emit), the number a
// latency SLO is written against. All instruments are nil-safe, so a
// Config.DisableObs engine carries a nil *engineMetrics and pays nothing
// (no clock reads either: roundMeter stays off).

import (
	"log/slog"
	"strconv"
	"time"

	"flowmotif/internal/obs"
)

type engineMetrics struct {
	stageSnapshot *obs.Histogram
	stageMatch    *obs.Histogram
	stageFanout   *obs.Histogram
	stageEmit     *obs.Histogram
	round         *obs.Histogram
	detectionLag  *obs.Histogram
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	stage := func(name string) *obs.Histogram {
		return r.Histogram("flowmotif_finalize_stage_seconds",
			"Per-finalize-round stage wall-clock: snapshot build, phase-P1 match run, phase-P2 sweeps, sink emit.",
			obs.LatencyBuckets, obs.L("stage", name))
	}
	return &engineMetrics{
		stageSnapshot: stage("snapshot"),
		stageMatch:    stage("match"),
		stageFanout:   stage("fanout"),
		stageEmit:     stage("emit"),
		round: r.Histogram("flowmotif_finalize_round_seconds",
			"Whole finalize round wall-clock (all stages, excluding sink emit).", obs.LatencyBuckets),
		detectionLag: r.Histogram("flowmotif_detection_lag_seconds",
			"End-to-end detection lag: ingest batch arrival wall-clock to detection emit.", obs.LatencyBuckets),
	}
}

// roundMeter times one finalize round. It reads the clock once per stage
// boundary — round start, after the snapshot, after the walk, after each
// sweep, round end — and those readings feed everything that times a
// round: the stage and round histograms, the round's spans, the slow-round
// warning, and cost attribution (applyCostLocked). It stays off — zero
// clock reads — unless metrics, tracing, or slow-round logging want it.
// It lives in roundScratch, so its per-shape and per-sample storage is
// reused across rounds.
type roundMeter struct {
	on                 bool //flowmotif:obsgate
	t0, last           time.Time
	snap, walk, fanout time.Duration
	// span is the round's real span ("finalize.round", child of the
	// batch's root span), the parent of the planner's stage spans; nil
	// with tracing off or no batch trace.
	span    *obs.TraceSpan
	tracer  *obs.Tracer
	shapes  []shapeCost  // the round's shapes, in plan order
	samples []costSample // the round's sweeps, member by member
}

func (m *roundMeter) begin(e *Engine) {
	*m = roundMeter{shapes: m.shapes[:0], samples: m.samples[:0]}
	if e.mx == nil && e.curSpan == nil && (e.logger == nil || e.slowRound <= 0) {
		return
	}
	m.on = true
	m.t0 = time.Now()
	m.last = m.t0
	if e.curSpan != nil {
		m.tracer = e.tracer
		m.span = e.tracer.StartSpan("finalize.round", e.curSpan.Context())
	}
}

// lap reads the clock and returns the time since the previous reading.
func (m *roundMeter) lap() time.Duration {
	if !m.on {
		return 0
	}
	now := time.Now()
	d := now.Sub(m.last)
	m.last = now
	return d
}

// child opens a span under parent (nil parent — tracing off or no batch
// trace — returns an inert nil span).
func (m *roundMeter) child(name string, parent *obs.TraceSpan, attrs ...obs.Label) *obs.TraceSpan {
	if parent == nil {
		return nil
	}
	return m.tracer.StartSpan(name, parent.Context(), attrs...)
}

// end reads the clock a last time, records the round into the engine's
// histograms (offering the round's trace as the histogram exemplar) and
// cost accounts, closes the round span, and — when the round exceeded the
// slow-round threshold — retains the trace in the flight recorder and
// logs a warning whose trace ID keys the same trace as the exemplar and
// /debug/traces. The caller holds mu.
func (m *roundMeter) end(e *Engine, watermark int64, bands int) {
	if !m.on {
		return
	}
	now := time.Now()
	total := now.Sub(m.t0)
	trace := m.span.Context().Trace
	if mx := e.mx; mx != nil {
		mx.stageSnapshot.ObserveDuration(m.snap)
		mx.stageMatch.ObserveDuration(m.walk)
		mx.stageFanout.ObserveDuration(m.fanout)
		mx.round.ObserveExemplar(total.Seconds(), trace)
		e.applyCostLocked(m, total, now)
	}
	m.span.Annotate(
		obs.L("watermark", strconv.FormatInt(watermark, 10)),
		obs.L("bands", strconv.Itoa(bands)))
	m.span.End()
	if e.slowRound > 0 && total > e.slowRound {
		// Tail sampling: a slow round's trace survives ring wraparound.
		e.tracer.Retain(trace)
		if e.logger != nil {
			e.logger.Warn("slow finalize round",
				slog.Duration("total", total),
				slog.Duration("snapshot", m.snap),
				slog.Duration("match", m.walk),
				slog.Duration("fanout", m.fanout),
				slog.Int64("watermark", watermark),
				slog.Int("bands", bands),
				slog.Int64("retained_events", int64(e.log.Len())),
				slog.String("trace", trace))
		}
	}
}
