package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// moveSub hands a subscription off between two engines fed by the same
// broadcast stream — the cluster re-placement primitive.
func moveSub(t *testing.T, from, to *Engine, id string) {
	t.Helper()
	rem, err := from.RemoveSubscription(id)
	if err != nil {
		t.Fatalf("remove %q: %v", id, err)
	}
	err = to.AddSubscription(rem.Sub, AddOptions{
		Catchup: rem.Events,
		Emitted: rem.Emitted,
		Primed:  rem.Primed,
	})
	if err != nil {
		t.Fatalf("re-add %q: %v", id, err)
	}
}

// TestRuntimeMoveEquivalence moves subscriptions between two engines fed
// by the same broadcast stream — including onto an engine that joins the
// broadcast mid-stream — and checks the union of detections is exactly the
// batch instance set, with no duplicates.
func TestRuntimeMoveEquivalence(t *testing.T) {
	evs := streamEvents(t, 21)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	subA := Subscription{ID: "A", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 2}
	subB := Subscription{ID: "B", Motif: motif.MustPath(0, 1, 2), Delta: 300, Phi: 0}

	got := map[string]map[string]bool{"A": {}, "B": {}}
	sink := FuncSink(func(d *Detection) {
		k := detKey(d)
		if got[d.Sub][k] {
			t.Errorf("sub %s: duplicate detection across the move: %s", d.Sub, k)
		}
		got[d.Sub][k] = true
	})
	e1, err := NewEngine(Config{Subs: []Subscription{subA, subB}}, sink)
	if err != nil {
		t.Fatal(err)
	}
	// e2 starts empty — a fresh member that joins the broadcast later.
	e2, err := NewEngine(Config{}, sink)
	if err != nil {
		t.Fatal(err)
	}

	third := len(evs) / 3
	feed := func(engines []*Engine, evs []temporal.Event) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < len(evs); {
			n := 1 + rng.Intn(40)
			if i+n > len(evs) {
				n = len(evs) - i
			}
			for _, e := range engines {
				if _, err := e.Ingest(evs[i : i+n]); err != nil {
					t.Fatal(err)
				}
			}
			i += n
		}
	}
	// Phase 1: only e1 is in the broadcast.
	feed([]*Engine{e1}, evs[:third])
	// A moves onto the cold engine: its catchup splices the history e2
	// never saw (Prepend establishes e2's frontier).
	moveSub(t, e1, e2, "A")
	feed([]*Engine{e1, e2}, evs[third:2*third])
	// ...and back onto the warm engine, whose own log now only holds the
	// recent suffix (catchup overlap is dropped by timestamp cut).
	moveSub(t, e2, e1, "A")
	feed([]*Engine{e1, e2}, evs[2*third:])
	e1.Flush()
	e2.Flush()

	for _, sub := range []Subscription{subA, subB} {
		p := core.Params{Delta: sub.Delta, Phi: sub.Phi}
		want, err := core.Collect(g, sub.Motif, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := map[string]bool{}
		for _, in := range want {
			wantKeys[batchKey(g, in)] = true
		}
		if len(wantKeys) == 0 {
			t.Fatalf("degenerate test: no batch instances for %s", sub.ID)
		}
		for k := range wantKeys {
			if !got[sub.ID][k] {
				t.Errorf("sub %s: missing %s", sub.ID, k)
			}
		}
		for k := range got[sub.ID] {
			if !wantKeys[k] {
				t.Errorf("sub %s: spurious %s", sub.ID, k)
			}
		}
	}
}

// TestRemoveSubscriptionReleasesRetention checks that dropping the
// longest-δ subscription lets the engine evict the events only it needed.
func TestRemoveSubscriptionReleasesRetention(t *testing.T) {
	eng, err := NewEngine(Config{Subs: []Subscription{
		{ID: "short", Motif: motif.MustPath(0, 1, 2), Delta: 10, Phi: 0},
		{ID: "long", Motif: motif.MustPath(0, 1, 2), Delta: 100000, Phi: 0},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		if _, err := eng.Ingest([]temporal.Event{{From: temporal.NodeID(i % 7), To: temporal.NodeID(i%7 + 1), T: i * 10, F: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Stats().EventsRetained
	if before < 1900 {
		t.Fatalf("long-δ subscription retained only %d events; test premise broken", before)
	}
	rem, err := eng.RemoveSubscription("long")
	if err != nil {
		t.Fatal(err)
	}
	if !rem.Primed || len(rem.Events) == 0 {
		t.Fatalf("handoff state empty: primed=%v events=%d", rem.Primed, len(rem.Events))
	}
	after := eng.Stats().EventsRetained
	if after >= before/10 {
		t.Errorf("EventsRetained %d -> %d after removal: retention not released", before, after)
	}
	if _, err := eng.RemoveSubscription("long"); !errors.Is(err, ErrUnknownSubscription) {
		t.Errorf("second removal: err=%v, want ErrUnknownSubscription", err)
	}
	if got := len(eng.Subscriptions()); got != 1 {
		t.Errorf("Subscriptions() = %d, want 1", got)
	}
}

// TestAddSubscriptionFromNow: an unprimed add onto a started engine only
// observes windows anchored after the current watermark.
func TestAddSubscriptionFromNow(t *testing.T) {
	var dets []*Detection
	sink := FuncSink(func(d *Detection) { dets = append(dets, d) })
	eng, err := NewEngine(Config{Subs: []Subscription{
		{ID: "seed", Motif: motif.MustPath(0, 1), Delta: 5, Phi: 0},
	}}, sink)
	if err != nil {
		t.Fatal(err)
	}
	pre := []temporal.Event{
		{From: 0, To: 1, T: 10, F: 1},
		{From: 1, To: 2, T: 11, F: 1},
	}
	if _, err := eng.Ingest(pre); err != nil {
		t.Fatal(err)
	}
	late := Subscription{ID: "late", Motif: motif.MustPath(0, 1, 2), Delta: 5, Phi: 0}
	if err := eng.AddSubscription(late, AddOptions{}); err != nil {
		t.Fatal(err)
	}
	// This chain is anchored at t=10 <= the add-time watermark (11): the
	// late subscriber must not see it, even though a new event completes it.
	if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 30, F: 1}, {From: 1, To: 2, T: 32, F: 1}}); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	var lateAnchors []int64
	for _, d := range dets {
		if d.Sub == "late" {
			lateAnchors = append(lateAnchors, d.Start)
		}
	}
	if len(lateAnchors) != 1 || lateAnchors[0] != 30 {
		t.Fatalf("late subscriber anchors = %v, want [30]", lateAnchors)
	}

	// Duplicate ids and invalid parameters are rejected atomically.
	if err := eng.AddSubscription(Subscription{ID: "late", Motif: motif.MustPath(0, 1)}, AddOptions{}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := eng.AddSubscription(Subscription{ID: "x", Motif: nil}, AddOptions{}); err == nil {
		t.Fatal("nil motif accepted")
	}
	if err := eng.AddSubscription(Subscription{ID: "x", Motif: motif.MustPath(0, 1), Delta: -1}, AddOptions{}); err == nil {
		t.Fatal("negative delta accepted")
	}
	if got := len(eng.Subscriptions()); got != 2 {
		t.Fatalf("Subscriptions() = %d after failed adds, want 2", got)
	}
}

// TestSinkMoveHelpers covers the handoff halves of the query sinks.
func TestSinkMoveHelpers(t *testing.T) {
	m := NewMemorySink(10)
	for i := 0; i < 4; i++ {
		m.Emit(&Detection{Sub: "a", Start: int64(i)})
		m.Emit(&Detection{Sub: "b", Start: int64(i)})
	}
	moved := m.RemoveSub("a")
	if len(moved) != 4 || moved[0].Start != 0 || moved[3].Start != 3 {
		t.Fatalf("RemoveSub returned %d (first=%v), want 4 oldest-first", len(moved), moved[0])
	}
	if got := m.Recent("a", 0); len(got) != 0 {
		t.Fatalf("removed sub still has %d retained detections", len(got))
	}
	if got := m.Recent("b", 0); len(got) != 4 {
		t.Fatalf("unrelated sub lost detections: %d, want 4", len(got))
	}
	if m.Total() != 4 {
		t.Fatalf("Total = %d after removal, want 4", m.Total())
	}
	m2 := NewMemorySink(10)
	m2.Emit(&Detection{Sub: "c", Start: 99})
	m2.Inject(moved)
	if got := m2.Recent("", 0); len(got) != 5 || got[0].Sub != "c" {
		t.Fatalf("Inject order wrong: %d entries, newest=%+v", len(got), got[0])
	}

	tk := NewTopKSink(2)
	for _, f := range []float64{1, 5, 3} {
		tk.Emit(&Detection{Sub: "a", Flow: f})
		tk.Emit(&Detection{Sub: "b", Flow: f})
	}
	top := tk.RemoveSub("a")
	if len(top) != 2 || top[0].Flow != 5 || top[1].Flow != 3 {
		t.Fatalf("RemoveSub top = %v, want best-first [5 3]", top)
	}
	if got := tk.Top("a"); len(got) != 0 {
		t.Fatalf("removed sub still serves top-%d", len(got))
	}
	tk2 := NewTopKSink(2)
	tk2.Emit(&Detection{Sub: "a", Flow: 4})
	tk2.Inject(top)
	if got := tk2.Top("a"); len(got) != 2 || got[0].Flow != 5 || got[1].Flow != 4 {
		t.Fatalf("Inject re-rank wrong: %v", flows(got))
	}
	if got := tk.Top("b"); len(got) != 2 {
		t.Fatalf("unrelated sub lost top entries: %d", len(got))
	}
}

func flows(ds []*Detection) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Flow
	}
	return out
}

// TestZeroSubEngine: an engine may run with no subscriptions (a cluster
// member awaiting placement), retaining nothing while tracking the stream
// frontier.
func TestZeroSubEngine(t *testing.T) {
	eng, err := NewEngine(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: i, F: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.EventsIngested != 100 {
		t.Fatalf("EventsIngested = %d, want 100", st.EventsIngested)
	}
	if st.EventsRetained != 0 {
		t.Fatalf("EventsRetained = %d with no subscriptions, want 0", st.EventsRetained)
	}
	if w, ok := eng.Watermark(); !ok || w != 99 {
		t.Fatalf("watermark = (%d, %v), want (99, true)", w, ok)
	}
	// An out-of-order batch is still rejected.
	if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 5, F: 1}}); !errors.Is(err, temporal.ErrBehindFrontier) {
		t.Fatalf("stale batch on zero-sub engine: %v", err)
	}
}

// TestMoveWithLargeDeltaOntoAggressiveEvictor: the receiving engine's own
// subscriptions evict far more aggressively than the moved subscription
// allows; the catchup splice must restore the needed prefix.
func TestMoveWithLargeDeltaOntoAggressiveEvictor(t *testing.T) {
	evs := streamEvents(t, 33)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	big := Subscription{ID: "big", Motif: motif.MustPath(0, 1, 2, 0), Delta: 2000, Phi: 1}
	tiny := Subscription{ID: "tiny", Motif: motif.MustPath(0, 1), Delta: 1, Phi: 0}

	got := map[string]bool{}
	sink := FuncSink(func(d *Detection) {
		if d.Sub != "big" {
			return
		}
		k := detKey(d)
		if got[k] {
			t.Errorf("duplicate detection %s", k)
		}
		got[k] = true
	})
	e1, err := NewEngine(Config{Subs: []Subscription{big}}, sink)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(Config{Subs: []Subscription{tiny}}, sink)
	if err != nil {
		t.Fatal(err)
	}
	half := len(evs) / 2
	for _, e := range []*Engine{e1, e2} {
		if _, err := e.Ingest(evs[:half]); err != nil {
			t.Fatal(err)
		}
	}
	if st := e2.Stats(); st.EventsRetained > 50 {
		t.Fatalf("receiver retained %d events; premise (aggressive eviction) broken", st.EventsRetained)
	}
	moveSub(t, e1, e2, "big")
	for _, e := range []*Engine{e1, e2} {
		if _, err := e.Ingest(evs[half:]); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}

	want, err := core.Collect(g, big.Motif, core.Params{Delta: big.Delta, Phi: big.Phi}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := map[string]bool{}
	for _, in := range want {
		wantKeys[batchKey(g, in)] = true
	}
	if len(wantKeys) == 0 {
		t.Fatal("degenerate test: no instances")
	}
	for k := range wantKeys {
		if !got[k] {
			t.Errorf("missing %s", k)
		}
	}
	for k := range got {
		if !wantKeys[k] {
			t.Errorf("spurious %s", k)
		}
	}
	if fmt.Sprint(len(got)) != fmt.Sprint(len(wantKeys)) {
		t.Errorf("got %d detections, want %d", len(got), len(wantKeys))
	}
}
