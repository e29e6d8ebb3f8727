package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// detKey serializes a detection's semantic content (bound nodes plus the
// (t, f) events of every edge-set) for set comparison.
func detKey(d *Detection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N%v", d.Nodes)
	for i, es := range d.Edges {
		fmt.Fprintf(&b, "|e%d", i)
		for _, p := range es {
			fmt.Fprintf(&b, ";%d:%g", p.T, p.F)
		}
	}
	return b.String()
}

// batchKey serializes a batch instance in detKey's format.
func batchKey(g *temporal.Graph, in *core.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N%v", in.Nodes)
	for i, a := range in.Arcs {
		fmt.Fprintf(&b, "|e%d", i)
		for _, p := range g.Series(a)[in.Spans[i].Start:in.Spans[i].End] {
			fmt.Fprintf(&b, ";%d:%g", p.T, p.F)
		}
	}
	return b.String()
}

// streamEvents returns a synthetic event log sorted by timestamp, arrival
// order randomized within equal timestamps (shuffled, then sorted — the
// stream contract only fixes the time order).
func streamEvents(t *testing.T, seed int64) []temporal.Event {
	t.Helper()
	evs, err := gen.Bitcoin(gen.BitcoinConfig{
		Nodes: 200, SeedTxns: 700, Duration: 30000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 31))
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	sortByTime(evs)
	return evs
}

func sortByTime(evs []temporal.Event) {
	// Stable so the shuffled order of equal timestamps survives: the
	// engine must not depend on any secondary arrival order.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
}

// TestStreamBatchEquivalence is the oracle: ingesting the time-ordered
// event log in random batch sizes and flushing must detect exactly the
// maximal instance set FindInstances reports on the equivalent batch
// graph, for every catalog motif under several (δ, φ) settings — while
// actually evicting events along the way.
func TestStreamBatchEquivalence(t *testing.T) {
	evs := streamEvents(t, 7)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}

	settings := []struct {
		delta int64
		phi   float64
	}{
		{300, 0},
		{900, 6},
	}
	var subs []Subscription
	for _, mo := range motif.Catalog() {
		for _, s := range settings {
			subs = append(subs, Subscription{
				ID:    fmt.Sprintf("%s/d%d/phi%g", mo.Name(), s.delta, s.phi),
				Motif: mo,
				Delta: s.delta,
				Phi:   s.phi,
			})
		}
	}

	got := map[string]map[string]bool{}
	var beforeFlush int64
	sink := FuncSink(func(d *Detection) {
		set := got[d.Sub]
		if set == nil {
			set = map[string]bool{}
			got[d.Sub] = set
		}
		k := detKey(d)
		if set[k] {
			t.Errorf("sub %s: duplicate detection %s", d.Sub, k)
		}
		set[k] = true
	})
	eng, err := NewEngine(Config{Subs: subs}, sink)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < len(evs); {
		n := 1 + rng.Intn(50)
		if i+n > len(evs) {
			n = len(evs) - i
		}
		batch := append([]temporal.Event(nil), evs[i:i+n]...)
		// Batches may be internally unordered; the engine sorts them.
		rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		if _, err := eng.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	midStats := eng.Stats()
	beforeFlush = midStats.Detections
	if beforeFlush == 0 {
		t.Error("no detection emitted before flush: engine is not incremental")
	}
	if midStats.EventsEvicted == 0 {
		t.Error("no event evicted during the stream: retention window not sliding")
	}
	eng.Flush()

	total := 0
	for _, sub := range subs {
		p := core.Params{Delta: sub.Delta, Phi: sub.Phi}
		want, err := core.Collect(g, sub.Motif, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := map[string]bool{}
		for _, in := range want {
			wantKeys[batchKey(g, in)] = true
		}
		gotKeys := got[sub.ID]
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Errorf("sub %s: missing %s", sub.ID, k)
			}
		}
		for k := range gotKeys {
			if !wantKeys[k] {
				t.Errorf("sub %s: spurious %s", sub.ID, k)
			}
		}
		total += len(wantKeys)
	}
	if total == 0 {
		t.Fatal("degenerate test: batch search found no instances at all")
	}

	st := eng.Stats()
	if st.EventsIngested != int64(len(evs)) {
		t.Errorf("EventsIngested = %d, want %d", st.EventsIngested, len(evs))
	}
	if st.Detections != int64(total) {
		t.Errorf("Detections = %d, want %d", st.Detections, total)
	}
	if st.EventsRetained >= len(evs)/2 {
		t.Errorf("EventsRetained = %d of %d: eviction ineffective", st.EventsRetained, len(evs))
	}
}

// TestStreamEmissionSequenceDeterministic pins the finalization-order
// contract (Sink, planGroup): two engines fed the same batches emit the
// same detections in the same sequence, byte for byte — across plan groups
// of two shapes, a group of several φ thresholds, and members added in no
// φ order.
func TestStreamEmissionSequenceDeterministic(t *testing.T) {
	evs := streamEvents(t, 13)
	tri, chain := motif.MustPath(0, 1, 2, 0), motif.MustPath(0, 1, 2)
	subs := []Subscription{
		{ID: "tri-hi", Motif: tri, Delta: 600, Phi: 3},
		{ID: "chain", Motif: chain, Delta: 300, Phi: 1},
		{ID: "tri-lo", Motif: tri, Delta: 600, Phi: 0},
		{ID: "tri-short", Motif: tri, Delta: 200, Phi: 1},
		{ID: "tri-mid", Motif: tri, Delta: 600, Phi: 2},
	}
	run := func() ([]byte, int) {
		var buf bytes.Buffer
		n := 0
		enc := json.NewEncoder(&buf)
		eng, err := NewEngine(Config{Subs: subs}, FuncSink(func(d *Detection) {
			n++
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(evs); i += 64 {
			if _, err := eng.Ingest(evs[i:min(i+64, len(evs))]); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
		return buf.Bytes(), n
	}
	a, n := run()
	b, _ := run()
	if n < 50 {
		t.Fatalf("degenerate test: %d detections", n)
	}
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := range min(len(la), len(lb)) {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("emission sequences differ at detection %d of %d:\n%s\n%s", i, n, la[i], lb[i])
			}
		}
		t.Fatalf("emission sequences differ in length: %d vs %d lines", len(la), len(lb))
	}
}

func TestStreamOrderContract(t *testing.T) {
	mo := motif.MustPath(0, 1, 2)
	eng, err := NewEngine(Config{
		Subs: []Subscription{{Motif: mo, Delta: 10, Phi: 0}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 100, F: 1}}); err != nil {
		t.Fatal(err)
	}
	// A batch reaching behind the watermark is rejected atomically.
	n, err := eng.Ingest([]temporal.Event{
		{From: 1, To: 2, T: 120, F: 1},
		{From: 1, To: 2, T: 50, F: 1},
	})
	if !errors.Is(err, temporal.ErrBehindFrontier) || n != 0 {
		t.Fatalf("stale batch accepted: n=%d err=%v", n, err)
	}
	if st := eng.Stats(); st.EventsIngested != 1 {
		t.Fatalf("EventsIngested = %d after rejected batch, want 1", st.EventsIngested)
	}
	// Equal-to-watermark events are fine before a flush...
	if _, err := eng.Ingest([]temporal.Event{{From: 1, To: 2, T: 100, F: 1}}); err != nil {
		t.Fatal(err)
	}
	// ...but after one, events must clear the watermark by more than δ:
	// anything closer could have landed inside an already-flushed window.
	eng.Flush()
	for _, tt := range []int64{100, 101, 110} {
		_, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: tt, F: 1}})
		if !errors.Is(err, temporal.ErrBehindFrontier) {
			t.Fatalf("post-flush ingest at t=%d (within watermark+δ): err=%v, want ErrBehindFrontier", tt, err)
		}
	}
	if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 111, F: 1}}); err != nil {
		t.Fatalf("post-flush ingest beyond watermark+δ rejected: %v", err)
	}
	// Invalid events are rejected without side effects.
	if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 200, F: -3}}); err == nil {
		t.Fatal("non-positive flow accepted")
	}
	if _, err := eng.Ingest([]temporal.Event{{From: -2, To: 1, T: 200, F: 1}}); err == nil {
		t.Fatal("negative node accepted")
	}
}

// TestSinkQueryDuringConcurrentIngest is the deadlock regression for the
// lock layering: a sink reading engine state while other goroutines
// concurrently call Ingest/Stats must make progress (a lock-order
// inversion here hangs the test until the go test timeout kills it).
func TestSinkQueryDuringConcurrentIngest(t *testing.T) {
	var eng *Engine
	sink := FuncSink(func(d *Detection) {
		eng.Stats() // takes mu while the emitter holds ingestMu
	})
	var err error
	eng, err = NewEngine(Config{
		Subs: []Subscription{{Motif: motif.MustPath(0, 1, 2), Delta: 2, Phi: 0}},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent readers and a contending (failing) writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				eng.Stats()
				_, _ = eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 0, F: 1}}) // stale after first batches
			}
		}
	}()
	for i := int64(1); i <= 300; i++ {
		batch := []temporal.Event{
			{From: 0, To: 1, T: 10 * i, F: 1},
			{From: 1, To: 2, T: 10*i + 1, F: 1},
		}
		if _, err := eng.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	eng.Flush()
	if eng.Stats().Detections == 0 {
		t.Fatal("no detections; the contention path was never exercised")
	}
}

// TestSinkMayQueryEngine checks the documented sink contract: Emit runs
// outside the ingestion lock, so sinks can read engine state re-entrantly.
func TestSinkMayQueryEngine(t *testing.T) {
	var eng *Engine
	fired := 0
	sink := FuncSink(func(d *Detection) {
		fired++
		if st := eng.Stats(); !st.Started {
			t.Error("Stats() from sink reports unstarted engine")
		}
		if _, ok := eng.Watermark(); !ok {
			t.Error("Watermark() from sink not available")
		}
	})
	var err error
	eng, err = NewEngine(Config{
		Subs: []Subscription{{Motif: motif.MustPath(0, 1, 2), Delta: 10, Phi: 0}},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Ingest([]temporal.Event{
		{From: 0, To: 1, T: 1, F: 1},
		{From: 1, To: 2, T: 2, F: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if fired == 0 {
		t.Fatal("sink never fired")
	}
}

func TestMemorySink(t *testing.T) {
	s := NewMemorySink(3)
	for i := 0; i < 5; i++ {
		s.Emit(&Detection{Sub: "a", Start: int64(i)})
	}
	s.Emit(&Detection{Sub: "b", Start: 99})
	if s.Total() != 6 {
		t.Fatalf("Total = %d, want 6", s.Total())
	}
	all := s.Recent("", 0)
	if len(all) != 3 {
		t.Fatalf("retained %d, want 3 (bounded ring)", len(all))
	}
	if all[0].Start != 99 || all[0].Sub != "b" {
		t.Fatalf("newest-first order violated: %+v", all[0])
	}
	onlyA := s.Recent("a", 1)
	if len(onlyA) != 1 || onlyA[0].Sub != "a" || onlyA[0].Start != 4 {
		t.Fatalf("filtered query wrong: %+v", onlyA)
	}
}

func TestTopKSink(t *testing.T) {
	s := NewTopKSink(3)
	flows := []float64{5, 1, 9, 3, 7, 9}
	for i, f := range flows {
		s.Emit(&Detection{Sub: "x", Flow: f, Start: int64(i)})
	}
	top := s.Top("x")
	if len(top) != 3 {
		t.Fatalf("Top returned %d, want 3", len(top))
	}
	if top[0].Flow != 9 || top[1].Flow != 9 || top[2].Flow != 7 {
		t.Fatalf("Top flows = %g,%g,%g, want 9,9,7", top[0].Flow, top[1].Flow, top[2].Flow)
	}
	if top[0].Start != 2 {
		t.Fatalf("tie broken wrong: Start=%d, want 2 (earlier instance first)", top[0].Start)
	}
	if got := s.Top("missing"); len(got) != 0 {
		t.Fatalf("unknown sub returned %d detections", len(got))
	}
}

// TestIngestWithAck pins the single-call acknowledgement the serving and
// cluster layers rely on: the ack's detection count is exactly what the
// call finalized (no Stats-diff around the call needed), and the
// watermark matches the engine's.
func TestIngestWithAck(t *testing.T) {
	sink := NewMemorySink(16)
	eng, err := NewEngine(Config{Subs: []Subscription{
		{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5},
	}}, sink)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := eng.IngestWithAck(nil)
	if err != nil || ack.Started || ack.Watermark != 0 {
		t.Fatalf("empty ingest ack = %+v, err=%v", ack, err)
	}
	ack, err = eng.IngestWithAck([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 2},
		{From: 0, To: 1, T: 40, F: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Watermark 40 closes the window anchored at 10 (δ=5): exactly one
	// detection finalized by this call.
	if ack.Ingested != 2 || ack.Watermark != 40 || !ack.Started || ack.Detections != 1 {
		t.Fatalf("ack = %+v, want {2, 40, started, 1 detection}", ack)
	}
	fl := eng.FlushWithAck()
	if fl.Watermark != 40 || fl.Detections != 1 {
		t.Fatalf("flush ack = %+v, want watermark 40, 1 detection", fl)
	}
	if got := eng.Stats().Detections; got != ack.Detections+fl.Detections {
		t.Fatalf("Stats().Detections = %d, acks summed to %d", got, ack.Detections+fl.Detections)
	}
}
