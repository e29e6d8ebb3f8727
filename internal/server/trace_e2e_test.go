package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/obs/obstest"
	"flowmotif/internal/stream"
)

// TestTraceparentHTTPRoundTrip: an incoming W3C traceparent header joins
// the request to the caller's trace — the ingest ack carries the caller's
// trace ID and the server-side spans (http.ingest → engine.ingest →
// finalize stages) parent correctly under it.
func TestTraceparentHTTPRoundTrip(t *testing.T) {
	srv, err := New(Config{
		Subs: []stream.Subscription{{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	// A caller-side span travels as the traceparent header.
	callerTracer := obs.NewTracer(0)
	caller := callerTracer.StartSpan("test.caller", obs.SpanContext{})
	// The t=500 closer advances the watermark so a finalize round runs
	// inside this same batch's trace.
	body := strings.NewReader(`{"events":[{"from":0,"to":1,"t":10,"f":5},{"from":1,"to":2,"t":12,"f":3},{"from":7,"to":8,"t":500,"f":1}]}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, caller.Context().Traceparent())
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	caller.End()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	if ack.Trace != caller.Context().Trace {
		t.Fatalf("ack trace %q, want the propagated caller trace %q", ack.Trace, caller.Context().Trace)
	}

	// The server's flight recorder holds the request's span subtree; with
	// the caller's own span stitched in, the set validates as one tree.
	spans := srv.ro.tracer.Spans(ack.Trace)
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, want := range []string{"http.ingest", "engine.ingest", "finalize.round"} {
		if !names[want] {
			t.Errorf("server trace missing %q span (have %v)", want, names)
		}
	}
	stitched := append(callerTracer.Spans(ack.Trace), spans...)
	if err := obstest.ValidateSpans(stitched); err != nil {
		t.Fatalf("stitched caller+server trace invalid: %v", err)
	}
	tree := obs.BuildSpanTree(stitched)
	if len(tree) != 1 || tree[0].Name != "test.caller" {
		t.Fatalf("stitched root should be the caller span: %+v", tree[0])
	}

	// Without a traceparent header the request roots a fresh trace.
	resp2, raw := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{
		"events": []map[string]interface{}{{"from": 0, "to": 1, "t": 900, "f": 1}},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second ingest: %d: %s", resp2.StatusCode, raw)
	}
	var ack2 ingestResponse
	if err := json.Unmarshal(raw, &ack2); err != nil {
		t.Fatal(err)
	}
	if ack2.Trace == "" || ack2.Trace == ack.Trace {
		t.Fatalf("headerless ingest should root a fresh trace, got %q", ack2.Trace)
	}
	own := srv.ro.tracer.Spans(ack2.Trace)
	if err := obstest.ValidateSpans(own); err != nil {
		t.Fatal(err)
	}
	if root := obs.BuildSpanTree(own); len(root) != 1 || root[0].Name != "http.ingest" {
		t.Fatalf("headerless trace root should be http.ingest: %+v", root)
	}
}

// TestClusterTraceE2E is the acceptance check of the tracing PR: a single
// POST /ingest on a two-member cluster produces one trace ID (returned in
// the ack) whose stitched /debug/traces span tree contains the coordinator
// append, each member's replication delivery, the member-side finalize
// round, and the emit stage — with every parent link resolving and
// timestamps monotone.
func TestClusterTraceE2E(t *testing.T) {
	subs := []stream.Subscription{
		{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 50},
		{ID: "hop", Motif: motif.MustPath(0, 1), Delta: 30},
	}
	m0, _ := memberDaemon(t, "m0")
	m1, _ := memberDaemon(t, "m1")
	c, err := cluster.New(cluster.Config{
		Members:    []cluster.Member{m0, m1},
		Subs:       subs,
		RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCoordinator(c, 0)
	front := httptest.NewServer(cs.Handler())
	t.Cleanup(front.Close)
	client := front.Client()

	// One batch through the public API: the ack's trace ID is the handle.
	events := []map[string]interface{}{
		{"from": 0, "to": 1, "t": 10, "f": 5},
		{"from": 1, "to": 2, "t": 12, "f": 3},
		{"from": 7, "to": 8, "t": 500, "f": 1}, // closes the windows
	}
	resp, raw := postJSON(t, client, front.URL+"/ingest", map[string]interface{}{"events": events})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, raw)
	}
	var ack ingestResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Trace == "" {
		t.Fatal("coordinator ack carries no trace ID")
	}
	// Replication is asynchronous; barrier on the full log being applied.
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// The coordinator's /debug/traces stitches member-side spans in.
	var detail struct {
		Trace string           `json:"trace"`
		Count int              `json:"count"`
		Spans []obs.SpanRecord `json:"spans"`
		Tree  []*obs.SpanNode  `json:"tree"`
	}
	if resp := getJSON(t, client, front.URL+"/debug/traces?trace="+ack.Trace, &detail); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", resp.StatusCode)
	}
	if detail.Trace != ack.Trace || detail.Count != len(detail.Spans) {
		t.Fatalf("trace detail inconsistent: %+v", detail)
	}
	if err := obstest.ValidateSpans(detail.Spans); err != nil {
		t.Fatalf("stitched cluster trace invalid: %v", err)
	}
	counts := map[string]int{}
	for _, s := range detail.Spans {
		counts[s.Name]++
	}
	if counts["http.ingest"] != 1 || counts["wire.ingest"] != 2 {
		// Coordinator front door + each member daemon's replicated frame.
		t.Errorf("http.ingest spans = %d, wire.ingest spans = %d, want 1 (coordinator) + 2 (members): %v",
			counts["http.ingest"], counts["wire.ingest"], counts)
	}
	if counts["ingest.append"] != 1 {
		t.Errorf("ingest.append spans = %d, want exactly 1: %v", counts["ingest.append"], counts)
	}
	if counts["replicate.deliver"] != 2 {
		t.Errorf("replicate.deliver spans = %d, want 2 (one per member): %v", counts["replicate.deliver"], counts)
	}
	if counts["engine.ingest"] != 2 || counts["finalize.round"] != 2 || counts["finalize.emit"] != 2 {
		t.Errorf("member-side pipeline spans missing: %v", counts)
	}
	if len(detail.Tree) != 1 || detail.Tree[0].Name != "http.ingest" {
		t.Fatalf("tree root should be the coordinator's http.ingest span: %v", detail.Tree[0].Name)
	}

	// Scatter-gather queries join the request trace too: one query.shard
	// span per member under the query span.
	var got struct {
		Instances []*stream.Detection `json:"instances"`
	}
	getJSON(t, client, front.URL+"/instances?limit=0&sub=chain", &got)
	if len(got.Instances) == 0 {
		t.Fatal("no detections after drain; test premise broken")
	}
	sums := summariesOf(t, client, front.URL+"/debug/traces?limit=500")
	var queryTrace string
	for _, s := range sums {
		if s.Root == "http.instances" {
			queryTrace = s.Trace
		}
	}
	if queryTrace == "" {
		t.Fatal("no http.instances trace in /debug/traces listing")
	}
	var qd struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	getJSON(t, client, front.URL+"/debug/traces?trace="+queryTrace, &qd)
	if err := obstest.ValidateSpans(qd.Spans); err != nil {
		t.Fatalf("query trace invalid: %v", err)
	}
	qc := map[string]int{}
	for _, s := range qd.Spans {
		qc[s.Name]++
	}
	if qc["query.instances"] != 1 || qc["query.shard"] == 0 {
		t.Errorf("query trace missing scatter-gather spans: %v", qc)
	}

	// The /debug/traces listing is bounded: limit is capped server-side.
	var listing struct {
		Count  int        `json:"count"`
		Traces []struct{} `json:"traces"`
	}
	getJSON(t, client, front.URL+"/debug/traces?limit=100000", &listing)
	if listing.Count > 500 {
		t.Fatalf("trace listing unbounded: %d entries", listing.Count)
	}
	if resp := getJSON(t, client, front.URL+"/debug/traces?limit=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: %d, want 400", resp.StatusCode)
	}
}

// TestSlowRequestTailSampling covers Config.SlowRequest: a request over
// the threshold keeps its trace in the flight recorder after the ring has
// wrapped past it (a trace nobody retained is gone by then), and the
// warning that reports it carries the same trace ID.
func TestSlowRequestTailSampling(t *testing.T) {
	var logs bytes.Buffer
	srv, err := New(Config{
		Subs:        []stream.Subscription{{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 50}},
		SlowRequest: time.Nanosecond, // every request is slow
		Logger:      slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	control := srv.ro.tracer.StartSpan("test.control", obs.SpanContext{})
	control.End()

	// Served synchronously, so the warning is written before ServeHTTP
	// returns.
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(`{"events":[{"from":0,"to":1,"t":10,"f":5}]}`))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var ack ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || rec.Code != http.StatusOK || ack.Trace == "" {
		t.Fatalf("ingest: %d %s (%v)", rec.Code, rec.Body, err)
	}
	var line struct {
		Msg, Endpoint, Trace string
		Code                 int
	}
	if err := json.Unmarshal(logs.Bytes(), &line); err != nil {
		t.Fatalf("slow-request log %q: %v", logs.String(), err)
	}
	if line.Msg != "slow request" || line.Endpoint != "ingest" || line.Code != http.StatusOK || line.Trace != ack.Trace {
		t.Fatalf("slow-request warning = %+v, want endpoint ingest, code 200, trace %s", line, ack.Trace)
	}

	for i := 0; i <= obs.DefaultTraceCapacity; i++ {
		srv.ro.tracer.StartSpan("test.filler", obs.SpanContext{}).End()
	}
	if spans := srv.ro.tracer.Spans(control.Context().Trace); len(spans) != 0 {
		t.Fatalf("ring did not wrap: unretained control trace still holds %d spans", len(spans))
	}
	names := map[string]bool{}
	for _, s := range srv.ro.tracer.Spans(ack.Trace) {
		names[s.Name] = true
	}
	if !names["http.ingest"] || !names["engine.ingest"] {
		t.Fatalf("slow request's trace did not survive ring wrap-around: have %v", names)
	}
}

func summariesOf(t *testing.T, client *http.Client, url string) []obs.TraceSummary {
	t.Helper()
	var out struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if resp := getJSON(t, client, url, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d", url, resp.StatusCode)
	}
	return out.Traces
}
