package obs_test

// These tests read what package obs writes back through the checks in
// obstest, which imports obs; so they live in the external test package.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/obs/obstest"
)

func testSnapshots() []obs.MetricSnapshot {
	r := obs.NewRegistry()
	r.Counter("flowmotif_events_total", "Events ingested.").Add(42)
	r.Gauge("flowmotif_watermark", "Stream watermark.", obs.L("member", "m1")).Set(123.5)
	r.Gauge("flowmotif_watermark", "Stream watermark.", obs.L("member", "m2")).Set(99)
	h := r.Histogram("flowmotif_lag_seconds", "Detection lag.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)
	r.Gauge("flowmotif_weird", "has \"quotes\" and \\slashes\\\nnewline",
		obs.L("path", `C:\tmp`), obs.L("msg", "say \"hi\"\nbye")).Set(1)
	return r.Snapshot()
}

func TestWritePrometheusParses(t *testing.T) {
	var b strings.Builder
	if err := obs.WritePrometheus(&b, testSnapshots()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	fams, err := obstest.ParseExposition(out)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	if f := fams["flowmotif_events_total"]; f == nil || f.Type != "counter" || f.Series[0].Value != 42 {
		t.Fatalf("counter family = %+v", f)
	}
	wm := fams["flowmotif_watermark"]
	if wm == nil || wm.Type != "gauge" || len(wm.Series) != 2 {
		t.Fatalf("gauge family = %+v", wm)
	}
	lag := fams["flowmotif_lag_seconds"]
	if lag == nil || lag.Type != "histogram" {
		t.Fatalf("histogram family = %+v", lag)
	}
	// Cumulative le buckets: 1, 3, 3, 4(+Inf).
	wantCum := map[string]float64{"0.01": 1, "0.1": 3, "1": 3, "+Inf": 4}
	for _, s := range lag.Series {
		if s.Name != "flowmotif_lag_seconds_bucket" {
			continue
		}
		if want, ok := wantCum[s.Labels["le"]]; !ok || s.Value != want {
			t.Fatalf("bucket le=%s = %v, want %v", s.Labels["le"], s.Value, want)
		}
	}
	// obs.Label escaping round-trips.
	weird := fams["flowmotif_weird"]
	if weird == nil || len(weird.Series) != 1 {
		t.Fatalf("weird family = %+v", weird)
	}
	if got := weird.Series[0].Labels["msg"]; got != "say \"hi\"\nbye" {
		t.Fatalf("escaped label round-trip = %q", got)
	}
	if got := weird.Series[0].Labels["path"]; got != `C:\tmp` {
		t.Fatalf("escaped label round-trip = %q", got)
	}
	// Unique TYPE lines: one per family.
	for _, fam := range []string{"flowmotif_watermark", "flowmotif_lag_seconds"} {
		if n := strings.Count(out, "# TYPE "+fam+" "); n != 1 {
			t.Fatalf("%d TYPE lines for %s", n, fam)
		}
	}
}

func TestParseExpositionRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"duplicate TYPE": "# TYPE a counter\na 1\n# TYPE a counter\n",
		"sample before TYPE for histogram": "x_bucket{le=\"+Inf\"} 1\n" +
			"# TYPE x histogram\n",
		"bad label syntax":       "# TYPE a gauge\na{k=unquoted} 1\n",
		"bad name":               "# TYPE 9bad gauge\n9bad 1\n",
		"missing +Inf bucket":    "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"non-cumulative buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"+Inf != count":          "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"missing _sum":           "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"unknown type":           "# TYPE a sparkline\na 1\n",
		"unterminated label":     "# TYPE a gauge\na{k=\"v} 1\n",
		"bad escape":             "# TYPE a gauge\na{k=\"\\x\"} 1\n",
		"duplicate label":        "# TYPE a gauge\na{k=\"1\",k=\"2\"} 1\n",
	}
	for name, in := range cases {
		if _, err := obstest.ParseExposition(in); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
}

func TestParseExpositionAcceptsValid(t *testing.T) {
	in := strings.Join([]string{
		"# a freeform comment",
		"# HELP a Help text.",
		"# TYPE a counter",
		"a 1",
		"# TYPE b gauge",
		`b{x="1",y="2"} -3.5`,
		"# TYPE h histogram",
		`h_bucket{le="0.1"} 0`,
		`h_bucket{le="+Inf"} 2`,
		"h_sum 3.5",
		"h_count 2",
		"",
	}, "\n")
	fams, err := obstest.ParseExposition(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("parsed %d families, want 3", len(fams))
	}
	if v := fams["b"].Series[0].Value; v != -3.5 {
		t.Fatalf("b = %v", v)
	}
}

func TestWriteEmptyHistogram(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("flowmotif_empty_seconds", "never observed", []float64{1, 2})
	var b strings.Builder
	if err := obs.WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := obstest.ParseExposition(b.String())
	if err != nil {
		t.Fatalf("empty histogram exposition invalid: %v\n%s", err, b.String())
	}
	f := fams["flowmotif_empty_seconds"]
	if f == nil {
		t.Fatal("family missing")
	}
	for _, s := range f.Series {
		if s.Value != 0 {
			t.Fatalf("empty histogram sample %s = %v", s.Name, s.Value)
		}
	}
}

// FuzzParseExposition drives the hand-written Prometheus text parser
// with arbitrary input. Seeds are a real registry's rendered exposition
// plus the rejection table from TestParseExpositionRejectsInvalid, so
// the fuzzer starts on both sides of the accept/reject boundary.
func FuzzParseExposition(f *testing.F) {
	r := obs.NewRegistry()
	r.Counter("flowmotif_rounds_total", "rounds", obs.L("member", "a")).Add(3)
	r.Gauge("flowmotif_watermark", "frontier").Set(42)
	r.Histogram("flowmotif_lat_seconds", "latency", []float64{0.1, 1}).Observe(0.5)
	var b strings.Builder
	if err := obs.WritePrometheus(&b, r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())

	for _, seed := range []string{
		"",
		"# a freeform comment\n",
		"# TYPE a counter\na 1\n",
		"# TYPE a counter\na 1\n# TYPE a counter\n",
		"x_bucket{le=\"+Inf\"} 1\n# TYPE x histogram\n",
		"# TYPE a gauge\na{k=unquoted} 1\n",
		"# TYPE 9bad gauge\n9bad 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"# TYPE a sparkline\na 1\n",
		"# TYPE a gauge\na{k=\"v} 1\n",
		"# TYPE a gauge\na{k=\"\\x\"} 1\n",
		"# TYPE a gauge\na{k=\"1\",k=\"2\"} 1\n",
		"# TYPE a gauge\na{k=\"\\\\\\\"\\n\"} +Inf\n",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, in string) {
		fams, err := obstest.ParseExposition(in)
		if err != nil {
			return // rejected input: only the absence of a panic matters
		}
		// Accepted input must satisfy the parser's own postconditions.
		for name, fam := range fams {
			if fam == nil {
				t.Fatalf("family %q is nil", name)
			}
			if fam.Name != name {
				t.Fatalf("family keyed %q but named %q", name, fam.Name)
			}
			switch fam.Type {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("family %q has unknown type %q", name, fam.Type)
			}
			for _, s := range fam.Series {
				if s.Name != fam.Name && !strings.HasPrefix(s.Name, fam.Name+"_") {
					t.Fatalf("family %q contains foreign series %q", fam.Name, s.Name)
				}
			}
		}
	})
}

func TestRetainSurvivesWraparound(t *testing.T) {
	tr := obs.NewTracer(4)
	root := tr.StartSpan("slow-root", obs.SpanContext{})
	child := tr.StartSpan("slow-child", root.Context())
	child.End()
	root.End()
	trace := root.Context().Trace
	tr.Retain(trace)
	tr.Retain(trace) // idempotent

	for i := 0; i < 32; i++ {
		tr.StartSpan("noise", obs.SpanContext{}).End()
	}
	spans := tr.Spans(trace)
	if len(spans) != 2 {
		t.Fatalf("retained trace has %d spans after wraparound, want 2", len(spans))
	}
	if err := obstest.ValidateSpans(spans); err != nil {
		t.Fatalf("retained trace invalid: %v", err)
	}
	// A span ending after Retain is appended to the retained store.
	late := tr.StartSpan("late", root.Context())
	late.End()
	for i := 0; i < 32; i++ {
		tr.StartSpan("noise", obs.SpanContext{}).End()
	}
	if got := len(tr.Spans(trace)); got != 3 {
		t.Fatalf("late span not retained: %d spans, want 3", got)
	}
	// Retained traces appear in summaries even with their ring spans gone.
	found := false
	for _, s := range tr.Summaries(0, false) {
		if s.Trace == trace {
			found = true
			if !s.Retained {
				t.Error("summary not flagged retained")
			}
		}
	}
	if !found {
		t.Fatal("retained trace missing from summaries")
	}
}

func TestSpanParentLinksAndAttrs(t *testing.T) {
	tr := obs.NewTracer(0)
	root := tr.StartSpan("root", obs.SpanContext{}, obs.L("a", "1"))
	child := tr.StartSpan("child", root.Context())
	child.Annotate(obs.L("b", "2"))
	child.End()
	child.Annotate(obs.L("after", "end")) // no-op
	if d := child.End(); d != 0 {         // idempotent
		t.Fatalf("second End = %v, want 0", d)
	}
	root.End()

	spans := tr.Spans(root.Context().Trace)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if err := obstest.ValidateSpans(spans); err != nil {
		t.Fatal(err)
	}
	tree := obs.BuildSpanTree(spans)
	if len(tree) != 1 || tree[0].Name != "root" || len(tree[0].Children) != 1 || tree[0].Children[0].Name != "child" {
		t.Fatalf("tree shape wrong: %+v", tree)
	}
	for _, n := range tree[0].Children {
		for _, a := range n.Attrs {
			if a.Key == "after" {
				t.Error("Annotate after End recorded")
			}
		}
	}
	// An over-long attr list is truncated, not grown unbounded.
	attrs := make([]obs.Label, obs.MaxSpanAttrs+4)
	for i := range attrs {
		attrs[i] = obs.L(fmt.Sprintf("k%d", i), "v")
	}
	sp := tr.StartSpan("wide", obs.SpanContext{}, attrs...)
	sp.Annotate(obs.L("extra", "v"))
	sp.End()
	wide := tr.Spans(sp.Context().Trace)
	if len(wide) != 1 || len(wide[0].Attrs) > obs.MaxSpanAttrs {
		t.Fatalf("attr cap broken: %d attrs", len(wide[0].Attrs))
	}
}

func TestValidateSpansRejects(t *testing.T) {
	now := time.Now().UnixNano()
	mk := func(trace, span, parent string, start, end int64) obs.SpanRecord {
		return obs.SpanRecord{Trace: trace, Span: span, Parent: parent, Name: span, Start: start, End: end}
	}
	tr1, tr2 := obs.NewTraceID(), obs.NewTraceID()
	a, b, c := obs.NewSpanID(), obs.NewSpanID(), obs.NewSpanID()

	cases := []struct {
		name  string
		spans []obs.SpanRecord
	}{
		{"empty", nil},
		{"mixed traces", []obs.SpanRecord{mk(tr1, a, "", now, now+10), mk(tr2, b, a, now, now+5)}},
		{"two roots", []obs.SpanRecord{mk(tr1, a, "", now, now+10), mk(tr1, b, "", now, now+5)}},
		{"orphan parent", []obs.SpanRecord{mk(tr1, a, "", now, now+10), mk(tr1, b, c, now, now+5)}},
		{"end before start", []obs.SpanRecord{mk(tr1, a, "", now, now-1)}},
		{"child before parent", []obs.SpanRecord{mk(tr1, a, "", now, now+10), mk(tr1, b, a, now-5, now)}},
		{"duplicate span", []obs.SpanRecord{mk(tr1, a, "", now, now+10), mk(tr1, a, "", now, now+10)}},
	}
	for _, tc := range cases {
		if obstest.ValidateSpans(tc.spans) == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	good := []obs.SpanRecord{mk(tr1, a, "", now, now+10), mk(tr1, b, a, now+1, now+8), mk(tr1, c, b, now+2, now+4)}
	if err := obstest.ValidateSpans(good); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	// obs.BuildSpanTree promotes an orphan parent to a root instead of losing it.
	orphaned := []obs.SpanRecord{mk(tr1, b, c, now, now+5)}
	if tree := obs.BuildSpanTree(orphaned); len(tree) != 1 {
		t.Errorf("orphan not promoted to root: %d roots", len(tree))
	}
}
