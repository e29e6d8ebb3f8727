package temporal

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestWindowLogAppendOrderAndValidation: Append keeps the order
// invariant; event validity is checked before it, by the caller's gate
// (TestGateAdmits).
func TestWindowLogAppendOrderAndValidation(t *testing.T) {
	l := NewWindowLog()
	if _, ok := l.Watermark(); ok {
		t.Fatal("empty log reports a watermark")
	}
	if err := l.Append(Event{From: 0, To: 1, T: 10, F: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{From: 1, To: 2, T: 10, F: 1}); err != nil {
		t.Fatalf("equal-timestamp append rejected: %v", err)
	}
	if err := l.Append(Event{From: 1, To: 2, T: 9, F: 1}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if w, _ := l.Watermark(); w != 10 {
		t.Fatalf("watermark = %d, want 10", w)
	}
	if l.Len() != 2 || l.Appended() != 2 {
		t.Fatalf("Len=%d Appended=%d, want 2, 2", l.Len(), l.Appended())
	}
}

func TestWindowLogEvictAndRange(t *testing.T) {
	l := NewWindowLog()
	for i := 0; i < 100; i++ {
		if err := l.Append(Event{From: NodeID(i % 5), To: NodeID((i + 1) % 5), T: int64(i), F: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.EvictBefore(0); n != 0 {
		t.Fatalf("evicted %d, want 0", n)
	}
	if n := l.EvictBefore(30); n != 30 {
		t.Fatalf("evicted %d, want 30", n)
	}
	if l.Len() != 70 || l.Evicted() != 30 {
		t.Fatalf("Len=%d Evicted=%d, want 70, 30", l.Len(), l.Evicted())
	}
	if ot, ok := l.OldestT(); !ok || ot != 30 {
		t.Fatalf("OldestT = %d,%v, want 30,true", ot, ok)
	}
	r := l.Range(40, 49)
	if len(r) != 10 || r[0].T != 40 || r[9].T != 49 {
		t.Fatalf("Range(40,49) = %d events [%v..%v]", len(r), r[0], r[len(r)-1])
	}
	if len(l.Range(200, 300)) != 0 || len(l.Range(0, 29)) != 0 {
		t.Fatal("out-of-window ranges non-empty")
	}
	l.EvictBefore(1000)
	if l.Len() != 0 {
		t.Fatalf("after full eviction: Len=%d", l.Len())
	}
	// The log stays usable after full eviction.
	if err := l.Append(Event{From: 9, To: 0, T: 99, F: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowLogSlidingEquivalence slides a window over a random stream and
// checks that BuildGraph over the retained suffix always equals a graph
// built directly from the same events, while the ring-style compaction
// keeps memory bounded.
func TestWindowLogSlidingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewWindowLog()
	var all []Event
	tNow := int64(0)
	const retention = 50
	for i := 0; i < 2000; i++ {
		tNow += int64(rng.Intn(3))
		e := Event{
			From: NodeID(rng.Intn(20)),
			To:   NodeID(rng.Intn(20)),
			T:    tNow,
			F:    1 + rng.Float64(),
		}
		all = append(all, e)
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		l.EvictBefore(tNow - retention)

		if i%97 != 0 {
			continue
		}
		var want []Event
		for _, w := range all {
			if w.T >= tNow-retention {
				want = append(want, w)
			}
		}
		if l.Len() != len(want) {
			t.Fatalf("step %d: Len=%d, want %d", i, l.Len(), len(want))
		}
		g, err := l.BuildGraph(tNow-retention, tNow)
		if err != nil {
			t.Fatal(err)
		}
		wg, err := NewGraphWithNodes(20, want)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEvents() != wg.NumEvents() || g.NumArcs() != wg.NumArcs() ||
			g.TotalFlow() != wg.TotalFlow() {
			t.Fatalf("step %d: snapshot graph diverges: %v vs %v", i, g, wg)
		}
	}
	if cap(l.events) > 4096 {
		t.Fatalf("backing array grew unbounded: cap=%d", cap(l.events))
	}
}

func TestWindowLogPrepend(t *testing.T) {
	l := NewWindowLog()
	for ti := int64(0); ti < 10; ti++ {
		if err := l.Append(Event{From: 0, To: 1, T: ti * 10, F: 1}); err != nil {
			t.Fatal(err)
		}
	}
	l.EvictBefore(50) // retained: t=50..90, evicted: t=0..40

	// Re-splicing evicted history restores it; overlap with the retained
	// suffix is dropped by timestamp cut.
	spliced, err := l.Prepend([]Event{
		{From: 0, To: 1, T: 20, F: 1},
		{From: 0, To: 1, T: 30, F: 1},
		{From: 0, To: 1, T: 40, F: 1},
		{From: 0, To: 1, T: 50, F: 1}, // duplicate of a retained event
	})
	if err != nil || spliced != 3 {
		t.Fatalf("Prepend = (%d, %v), want (3, nil)", spliced, err)
	}
	if l.Len() != 8 {
		t.Fatalf("Len = %d, want 8", l.Len())
	}
	if got, _ := l.OldestT(); got != 20 {
		t.Fatalf("OldestT = %d, want 20", got)
	}
	if l.Appended()-l.Evicted() != int64(l.Len()) {
		t.Fatalf("counter invariant broken: appended=%d evicted=%d retained=%d",
			l.Appended(), l.Evicted(), l.Len())
	}
	if w, _ := l.Watermark(); w != 90 {
		t.Fatalf("watermark moved to %d after Prepend, want 90", w)
	}
	// The spliced state must round-trip through the snapshot validator.
	if _, err := NewWindowLogFromState(l.State()); err != nil {
		t.Fatalf("spliced log state invalid: %v", err)
	}

	// Out-of-order and invalid prepends are rejected without side effects.
	if _, err := l.Prepend([]Event{{From: 0, To: 1, T: 15, F: 1}, {From: 0, To: 1, T: 5, F: 1}}); err == nil {
		t.Fatal("out-of-order prepend accepted")
	}
	if _, err := l.Prepend([]Event{{From: 0, To: 1, T: 5, F: -1}}); err == nil {
		t.Fatal("non-positive flow prepend accepted")
	}
	if l.Len() != 8 {
		t.Fatalf("failed prepend mutated the log: Len = %d, want 8", l.Len())
	}
}

func TestWindowLogPrependIntoFreshAndDrainedLog(t *testing.T) {
	// A never-started log adopts the prepended history wholesale,
	// establishing the watermark — the fresh-cluster-member case.
	l := NewWindowLog()
	n, err := l.Prepend([]Event{
		{From: 0, To: 1, T: 10, F: 1},
		{From: 2, To: 3, T: 20, F: 2},
	})
	if err != nil || n != 2 {
		t.Fatalf("Prepend = (%d, %v), want (2, nil)", n, err)
	}
	if w, ok := l.Watermark(); !ok || w != 20 {
		t.Fatalf("watermark = (%d, %v), want (20, true)", w, ok)
	}
	if err := l.Append(Event{From: 0, To: 1, T: 25, F: 1}); err != nil {
		t.Fatalf("append after prepend: %v", err)
	}

	// A started-but-drained log (everything evicted) accepts history up to
	// its watermark and nothing past it.
	d := NewWindowLog()
	if err := d.Append(Event{From: 0, To: 1, T: 100, F: 1}); err != nil {
		t.Fatal(err)
	}
	d.EvictBefore(200)
	if d.Len() != 0 {
		t.Fatalf("Len = %d after full eviction, want 0", d.Len())
	}
	if _, err := d.Prepend([]Event{{From: 0, To: 1, T: 150, F: 1}}); err == nil {
		t.Fatal("prepend past the watermark of a drained log accepted")
	}
	if n, err := d.Prepend([]Event{{From: 0, To: 1, T: 60, F: 1}, {From: 0, To: 1, T: 90, F: 1}}); err != nil || n != 2 {
		t.Fatalf("Prepend = (%d, %v), want (2, nil)", n, err)
	}
	if w, _ := d.Watermark(); w != 100 {
		t.Fatalf("watermark = %d after drained prepend, want 100", w)
	}
	if _, err := NewWindowLogFromState(d.State()); err != nil {
		t.Fatalf("drained-splice state invalid: %v", err)
	}
}

// TestWindowLogStateRestore: a state round-trips, a snapshot written
// while the state still carried a "numNodes" universe loads unchanged,
// and a state naming a negative node is refused.
func TestWindowLogStateRestore(t *testing.T) {
	old := `{"events":[{"From":0,"To":7,"T":10,"F":1},{"From":7,"To":2,"T":20,"F":2}],` +
		`"appended":3,"evicted":1,"watermark":20,"started":true,"numNodes":9}`
	var s WindowLogState
	if err := json.Unmarshal([]byte(old), &s); err != nil {
		t.Fatal(err)
	}
	l, err := NewWindowLogFromState(s)
	if err != nil {
		t.Fatalf("state with numNodes refused: %v", err)
	}
	if w, _ := l.Watermark(); l.Len() != 2 || l.Appended() != 3 || l.Evicted() != 1 || w != 20 {
		t.Fatalf("restored Len=%d Appended=%d Evicted=%d watermark=%d, want 2, 3, 1, 20",
			l.Len(), l.Appended(), l.Evicted(), w)
	}
	if _, err := NewWindowLogFromState(l.State()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	s.Events[0].From = -1
	if _, err := NewWindowLogFromState(s); err == nil {
		t.Fatal("state with a negative node accepted")
	}
}

// TestBatchAdmissionRule pins the one statement of the rule every
// admitting layer calls: stable time order through each of InTimeOrder's
// three buffer modes, and the per-event check naming the first offender.
func TestBatchAdmissionRule(t *testing.T) {
	// From tags arrival order, so stability is visible among equal T.
	unsorted := []Event{{From: 0, T: 30, F: 1}, {From: 1, T: 10, F: 1}, {From: 2, T: 30, F: 1}, {From: 3, T: 10, F: 1}}
	want := []NodeID{1, 3, 0, 2}
	check := func(mode string, got []Event) {
		t.Helper()
		for i, ev := range got {
			if ev.From != want[i] {
				t.Fatalf("%s: order %v, want arrival tags %v", mode, got, want)
			}
		}
	}

	in := append([]Event(nil), unsorted...)
	check("nil scratch", InTimeOrder(in, nil))
	if in[0].T != 30 {
		t.Fatal("nil scratch: the caller's batch was reordered")
	}
	scratch := make([]Event, 0, 8)
	got := InTimeOrder(in, &scratch)
	check("scratch", got)
	if &got[0] != &scratch[:1][0] || in[0].T != 30 {
		t.Fatal("scratch: want the ordered copy built in the scratch buffer, the input untouched")
	}
	check("in place", InTimeOrder(in, &in))
	check("in place (the slice itself)", in)
	if sorted := InTimeOrder(got, nil); &sorted[0] != &got[0] {
		t.Fatal("an ordered batch must be returned as is")
	}

	if err := CheckEvents(got); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Event{
		"negative source": {From: -1, To: 1, T: 1, F: 1},
		"negative target": {From: 1, To: -1, T: 1, F: 1},
		"zero flow":       {From: 0, To: 1, T: 1, F: 0},
		"NaN flow":        {From: 0, To: 1, T: 1, F: math.NaN()},
		"infinite flow":   {From: 0, To: 1, T: 1, F: math.Inf(1)},
	} {
		err := CheckEvents([]Event{got[0], bad, bad})
		if err == nil || !strings.HasPrefix(err.Error(), "batch event 1:") {
			t.Errorf("%s: err = %v, want a rejection naming event 1", name, err)
		}
	}
}
