package stream

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/obs/obstest"
	"flowmotif/internal/temporal"
)

// chainEvents builds a small 0→1→2 chain stream plus a closing event far
// enough past the window to finalize everything.
func chainEvents() ([]temporal.Event, []temporal.Event) {
	batch := []temporal.Event{
		{From: 0, To: 1, T: 10, F: 5},
		{From: 1, To: 2, T: 12, F: 3},
	}
	closer := []temporal.Event{{From: 7, To: 8, T: 500, F: 1}}
	return batch, closer
}

// TestIngestTraceTree: one traced batch records a well-formed span tree —
// engine.ingest root, finalize.round child, stage and plan spans under it —
// keyed by the ack's trace ID.
func TestIngestTraceTree(t *testing.T) {
	tracer := obs.NewTracer(0)
	eng, err := NewEngine(Config{
		Subs:   []Subscription{{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 50}},
		Tracer: tracer,
	}, FuncSink(func(d *Detection) {}))
	if err != nil {
		t.Fatal(err)
	}
	batch, closer := chainEvents()
	ack1, err := eng.IngestWithAck(batch)
	if err != nil {
		t.Fatal(err)
	}
	if ack1.Trace == "" {
		t.Fatal("ack carries no trace ID with tracing on")
	}
	ack2, err := eng.IngestWithAck(closer)
	if err != nil {
		t.Fatal(err)
	}
	if ack2.Trace == "" || ack2.Trace == ack1.Trace {
		t.Fatalf("each batch should root its own trace: %q then %q", ack1.Trace, ack2.Trace)
	}
	if ack2.Detections == 0 {
		t.Fatal("closer batch finalized nothing; test premise broken")
	}

	spans := tracer.Spans(ack2.Trace)
	if err := obstest.ValidateSpans(spans); err != nil {
		t.Fatalf("batch trace invalid: %v", err)
	}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
	}
	for _, want := range []string{"engine.ingest", "finalize.round", "finalize.snapshot", "finalize.plan", "finalize.fanout", "finalize.emit"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
	tree := obs.BuildSpanTree(spans)
	if len(tree) != 1 || tree[0].Name != "engine.ingest" {
		t.Fatalf("root should be engine.ingest: %+v", tree)
	}

	// A parented ingest joins the caller's trace instead of rooting one.
	parent := tracer.StartSpan("caller", obs.SpanContext{})
	ack3, err := eng.IngestTraced([]temporal.Event{{From: 0, To: 1, T: 900, F: 1}}, parent.Context())
	if err != nil {
		t.Fatal(err)
	}
	parent.End()
	if ack3.Trace != parent.Context().Trace {
		t.Fatalf("parented ingest rooted its own trace %q, want %q", ack3.Trace, parent.Context().Trace)
	}
	if err := obstest.ValidateSpans(tracer.Spans(ack3.Trace)); err != nil {
		t.Fatal(err)
	}
}

// TestSlowRoundRetainsTrace: a breached slow-round threshold logs a warning
// whose trace ID keys a retained trace in the flight recorder.
func TestSlowRoundRetainsTrace(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tracer := obs.NewTracer(8) // tiny ring so retention is what preserves it
	eng, err := NewEngine(Config{
		Subs:      []Subscription{{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 50}},
		Tracer:    tracer,
		Logger:    logger,
		SlowRound: time.Nanosecond, // every round breaches
	}, FuncSink(func(d *Detection) {}))
	if err != nil {
		t.Fatal(err)
	}
	batch, closer := chainEvents()
	if _, err := eng.IngestWithAck(batch); err != nil {
		t.Fatal(err)
	}
	ack, err := eng.IngestWithAck(closer)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow finalize round") {
		t.Fatalf("no slow-round warning logged: %q", out)
	}
	if !strings.Contains(out, "trace="+ack.Trace) {
		t.Fatalf("warning does not carry the batch trace %s: %q", ack.Trace, out)
	}
	// Wrap the tiny ring; the retained slow trace must survive.
	for i := 0; i < 32; i++ {
		tracer.StartSpan("noise", obs.SpanContext{}).End()
	}
	spans := tracer.Spans(ack.Trace)
	if len(spans) == 0 {
		t.Fatal("slow round's trace not retained across ring wraparound")
	}
	if err := obstest.ValidateSpans(spans); err != nil {
		t.Fatal(err)
	}
}

// TestDisableObsNoSpans: DisableObs leaves acks without trace IDs and
// records nothing, even into a tracer the caller supplied.
func TestDisableObsNoSpans(t *testing.T) {
	tracer := obs.NewTracer(0)
	eng, err := NewEngine(Config{
		Subs:       []Subscription{{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 50}},
		Tracer:     tracer,
		DisableObs: true,
	}, FuncSink(func(d *Detection) {}))
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := chainEvents()
	ack, err := eng.IngestWithAck(batch)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Trace != "" {
		t.Fatalf("DisableObs ack carries trace %q", ack.Trace)
	}
	if tracer.Total() != 0 {
		t.Fatalf("DisableObs recorded %d spans", tracer.Total())
	}
}
