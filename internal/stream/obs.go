package stream

// Engine instrumentation (internal/obs). The engine records, per finalize
// round, a stage breakdown histogram — snapshot build, phase-P1 match
// run, per-group phase-P2 sweeps, sink emit — plus the end-to-end
// detection lag (batch arrival wall-clock → detection emit), the number a
// latency SLO is written against. All instruments are nil-safe, so a
// Config.DisableObs engine carries a nil *engineMetrics and pays nothing
// (no clock reads either: roundTrace stays off).

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

// emitHist and lagHist are nil-safe accessors for the two instruments
// observed outside finalize (emitPending runs with mu released).
func (m *engineMetrics) emitHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.stageEmit
}

func (m *engineMetrics) lagHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.detectionLag
}

// startPlanSpan opens a child span under parent (nil parent — tracing
// off or no batch trace — returns an inert nil span). The caller holds
// mu.
func (e *Engine) startPlanSpan(name string, parent *obs.TraceSpan, attrs ...obs.Label) *obs.TraceSpan {
	if parent == nil {
		return nil
	}
	return e.tracer.StartSpan(name, parent.Context(), attrs...)
}

// roundTrace accumulates one finalize round's stage durations — snapshot
// build, the phase-P1 walk, and the fan-out summed over shapes — recorded
// once at round end. It stays off — zero clock reads — unless metrics,
// tracing, or slow-round logging want it. With tracing on it also carries
// the round's real span ("finalize.round", child of the batch's root
// span), the parent of the planner's stage spans.
type roundTrace struct {
	on                  bool //flowmotif:obsgate
	t0, last            time.Time
	snap, match, fanout time.Duration
	span                *obs.TraceSpan
}

func (t *roundTrace) begin(e *Engine) {
	if e.mx == nil && e.curSpan == nil && (e.logger == nil || e.slowRound <= 0) {
		return
	}
	t.on = true
	t.t0 = time.Now()
	t.last = t.t0
	if e.curSpan != nil {
		t.span = e.tracer.StartSpan("finalize.round", e.curSpan.Context())
	}
}

// mark adds the time since the previous mark to one stage accumulator.
func (t *roundTrace) mark(d *time.Duration) {
	if !t.on {
		return
	}
	now := time.Now()
	*d += now.Sub(t.last)
	t.last = now
}

// end records the round into the engine's histograms (offering the
// round's trace as the histogram exemplar), closes the round span, and —
// when the round exceeded the slow-round threshold — retains the trace
// in the flight recorder and logs a warning whose trace ID keys the same
// trace as the exemplar and /debug/traces. The caller holds mu.
func (t *roundTrace) end(e *Engine, watermark int64, bands int) {
	if !t.on {
		return
	}
	total := time.Since(t.t0)
	trace := t.span.Context().Trace
	if mx := e.mx; mx != nil {
		mx.stageSnapshot.ObserveDuration(t.snap)
		mx.stageMatch.ObserveDuration(t.match)
		mx.stageFanout.ObserveDuration(t.fanout)
		mx.round.ObserveExemplar(total.Seconds(), trace)
	}
	t.span.Annotate(
		obs.L("watermark", strconv.FormatInt(watermark, 10)),
		obs.L("bands", strconv.Itoa(bands)))
	t.span.End()
	if e.slowRound > 0 && total > e.slowRound {
		// Tail sampling: a slow round's trace survives ring wraparound.
		e.tracer.Retain(trace)
		if e.logger != nil {
			e.logger.Warn("slow finalize round",
				slog.Duration("total", total),
				slog.Duration("snapshot", t.snap),
				slog.Duration("match", t.match),
				slog.Duration("fanout", t.fanout),
				slog.Int64("watermark", watermark),
				slog.Int("bands", bands),
				slog.Int64("retained_events", int64(e.log.Len())),
				slog.String("trace", trace))
		}
	}
}
