package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestTraceIDUniqueness: IDs are well-formed hex of the right width and
// unique, including under concurrent generation (run with -race).
func TestTraceIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		tr, sp := NewTraceID(), NewSpanID()
		if len(tr) != 32 || !isHex(tr) {
			t.Fatalf("trace ID %q: want 32 hex digits", tr)
		}
		if len(sp) != 16 || !isHex(sp) {
			t.Fatalf("span ID %q: want 16 hex digits", sp)
		}
		if seen[tr] || seen[sp] {
			t.Fatalf("duplicate ID at iteration %d", i)
		}
		seen[tr], seen[sp] = true, true
	}

	const workers, perWorker = 8, 2000
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]string, 0, 2*perWorker)
			for i := 0; i < perWorker; i++ {
				out = append(out, NewTraceID(), NewSpanID())
			}
			ids[w] = out
		}(w)
	}
	wg.Wait()
	all := map[string]bool{}
	for _, chunk := range ids {
		for _, id := range chunk {
			if all[id] {
				t.Fatal("duplicate ID under concurrent generation")
			}
			all[id] = true
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	tp := sc.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q: want 55 chars", tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	// Future versions are accepted when the 00-prefix fields parse.
	if got, ok := ParseTraceparent("01-" + sc.Trace + "-" + sc.Span + "-01-extra"); !ok || got != sc {
		t.Fatalf("future version rejected: %+v ok=%v", got, ok)
	}

	invalid := []string{
		"",
		"00",
		"00-" + sc.Trace + "-" + sc.Span,         // truncated flags
		"00-" + sc.Trace + "-" + sc.Span + "-",   // truncated flags
		"ff-" + sc.Trace + "-" + sc.Span + "-01", // forbidden version
		"0x-" + sc.Trace + "-" + sc.Span + "-01", // non-hex version
		"00-" + sc.Trace + "-" + sc.Span + "-01-extra",           // version 00 with trailer
		"00-00000000000000000000000000000000-" + sc.Span + "-01", // all-zero trace
		"00-" + sc.Trace + "-0000000000000000-01",                // all-zero span
		"00-" + sc.Trace[:31] + "Z-" + sc.Span + "-01",           // non-hex trace
		"00_" + sc.Trace + "-" + sc.Span + "-01",                 // bad separator
	}
	for _, s := range invalid {
		if got, ok := ParseTraceparent(s); ok || got.Valid() {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", s, got)
		}
	}

	if (SpanContext{}).Traceparent() != "" {
		t.Error("zero context should render no traceparent")
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", SpanContext{})
	if sp != nil {
		t.Fatal("nil tracer should return a nil (inert) span")
	}
	sp.Annotate(L("k", "v")) // must not panic
	if d := sp.End(); d != 0 {
		t.Fatalf("inert span End() = %v, want 0", d)
	}
	if sp.Context().Valid() {
		t.Fatal("inert span context should be invalid")
	}
	tr.Retain("abc")
	if tr.Spans("abc") != nil || tr.Summaries(0, false) != nil || tr.Total() != 0 {
		t.Fatal("nil tracer queries should be empty")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	first := tr.StartSpan("first", SpanContext{})
	first.End()
	for i := 0; i < 8; i++ {
		tr.StartSpan(fmt.Sprintf("later-%d", i), SpanContext{}).End()
	}
	if tr.Total() != 9 {
		t.Fatalf("Total = %d, want 9", tr.Total())
	}
	if got := tr.Spans(first.Context().Trace); got != nil {
		t.Fatalf("overwritten trace still resident: %v", got)
	}
	if sums := tr.Summaries(0, false); len(sums) != 4 {
		t.Fatalf("resident traces = %d, want ring capacity 4", len(sums))
	}
	// The listing cap applies.
	if sums := tr.Summaries(2, false); len(sums) != 2 {
		t.Fatalf("limited listing = %d entries, want 2", len(sums))
	}
}

func TestRetainedStoreBounded(t *testing.T) {
	tr := NewTracer(4)
	var traces []string
	for i := 0; i < maxRetainedTraces+8; i++ {
		sp := tr.StartSpan("r", SpanContext{})
		sp.End()
		tr.Retain(sp.Context().Trace)
		traces = append(traces, sp.Context().Trace)
	}
	tr.mu.Lock()
	n := len(tr.retained)
	tr.mu.Unlock()
	if n != maxRetainedTraces {
		t.Fatalf("retained store holds %d traces, want %d", n, maxRetainedTraces)
	}
	// Oldest evicted, newest kept.
	tr.mu.Lock()
	_, oldest := tr.retained[traces[0]]
	_, newest := tr.retained[traces[len(traces)-1]]
	tr.mu.Unlock()
	if oldest || !newest {
		t.Fatalf("eviction order wrong: oldest=%v newest=%v", oldest, newest)
	}
}

// TestTracerConcurrency hammers record/retain/query from many goroutines;
// meaningful under -race.
func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(64)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				root := tr.StartSpan("root", SpanContext{})
				child := tr.StartSpan("child", root.Context(), L("i", "x"))
				child.End()
				if i%16 == 0 {
					tr.Retain(root.Context().Trace)
				}
				root.End()
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Summaries(10, true)
				tr.Total()
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if tr.Total() != 4*500*2 {
		t.Fatalf("Total = %d, want %d", tr.Total(), 4*500*2)
	}
}
