package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"flowmotif/internal/obs"
)

var errTracingDisabled = errors.New("tracing disabled")

// This file is the front door's request accounting: a status-capturing
// ResponseWriter so request counts split by response class, per-endpoint
// latency histograms (flowmotif_http_request_seconds{endpoint,code}), the
// per-request trace span ("http.<endpoint>", continuing an incoming W3C
// traceparent or rooting a new trace), slow-request tail sampling, and
// the helpers that lift Stats scalars into the Prometheus exposition.

// statusWriter records the response status the handler committed, so the
// request accounting can split by class. A handler that never calls
// WriteHeader implicitly answers 200 on the first Write.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// codeClass buckets a status code into the label value of the request
// histogram ("2xx", "4xx", "5xx", ...).
func codeClass(code int) string {
	switch {
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 300 && code < 400:
		return "3xx"
	case code >= 400 && code < 500:
		return "4xx"
	case code >= 500:
		return "5xx"
	default:
		return "1xx"
	}
}

const httpHistHelp = "HTTP request latency by endpoint and response class."

// spanKey keys the request's trace span in the request context; handlers
// fetch it with requestSpan to parent their own spans (engine ingest,
// cluster scatter-gather) onto the request.
type spanKey struct{}

// requestSpan returns the request's "http.<endpoint>" span, or nil when
// tracing is off (every obs span operation is nil-safe).
func requestSpan(r *http.Request) *obs.TraceSpan {
	sp, _ := r.Context().Value(spanKey{}).(*obs.TraceSpan)
	return sp
}

// requestObs bundles what the request-accounting middleware needs: the
// metrics registry, the trace flight recorder, and the slow-request
// tail-sampling policy.
type requestObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	slow   time.Duration // retain + warn when a request exceeds this (0: off)
	logger *slog.Logger
}

// wrap decorates a handler with the shared request accounting: the total
// into reqs, count and latency into the registry's per-(endpoint,
// code-class) histogram (with the request's trace as exemplar), and one
// "http.<endpoint>" span per request — continuing the caller's
// traceparent header when present, rooting a fresh trace otherwise. A
// request slower than o.slow is tail-sampled: its trace is retained in
// the flight recorder and a warning logs the same trace ID that keys
// /debug/traces and the histogram exemplar. Class histograms register
// lazily on first use, so an endpoint that never errors never grows
// 4xx/5xx series.
func (o requestObs) wrap(reqs *atomic.Int64, name string, h http.HandlerFunc) http.HandlerFunc {
	// The in-flight gauge registers once per endpoint at wrap time, so a
	// saturated endpoint is visible (requests entered, none finished)
	// before its latency histogram moves at all.
	var inflight *obs.Gauge
	if o.reg != nil {
		inflight = o.reg.Gauge("flowmotif_http_inflight",
			"HTTP requests currently being served, by endpoint.",
			obs.L("endpoint", name))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		inflight.Add(1)
		defer inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		var sp *obs.TraceSpan
		if o.tracer != nil {
			parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
			sp = o.tracer.StartSpan("http."+name, parent, obs.L("method", r.Method))
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, sp))
		}
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		code := sw.status
		if code == 0 {
			// The handler wrote nothing at all (e.g. a bare 200 with an
			// empty body never touches the writer): net/http answers 200.
			code = http.StatusOK
		}
		trace := sp.Context().Trace
		sp.Annotate(obs.L("code", strconv.Itoa(code)))
		sp.End()
		if o.slow > 0 && d > o.slow && sp != nil {
			o.tracer.Retain(trace)
			if o.logger != nil {
				o.logger.Warn("slow request",
					slog.String("endpoint", name),
					slog.Duration("total", d),
					slog.Int("code", code),
					slog.String("trace", trace))
			}
		}
		if o.reg != nil {
			hist := o.reg.Histogram("flowmotif_http_request_seconds", httpHistHelp, nil,
				obs.L("endpoint", name), obs.L("code", codeClass(code)))
			if trace != "" {
				hist.ObserveExemplar(d.Seconds(), trace)
			} else {
				hist.Observe(d.Seconds())
			}
		}
	}
}

// gaugeSnap and counterSnap lift a point-in-time scalar into a metric
// snapshot for the Prometheus exposition (used for the engine/store/cluster
// gauges that live in Stats structs rather than the registry).
func gaugeSnap(name, help string, v float64, labels ...obs.Label) obs.MetricSnapshot {
	return obs.MetricSnapshot{Name: name, Help: help, Kind: obs.KindGauge, Labels: labels, Value: v}
}

func counterSnap(name, help string, v float64, labels ...obs.Label) obs.MetricSnapshot {
	return obs.MetricSnapshot{Name: name, Help: help, Kind: obs.KindCounter, Labels: labels, Value: v}
}
