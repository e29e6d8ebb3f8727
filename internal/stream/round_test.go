package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// drainRig feeds one stream to three engines that differ only in their
// sinks: the daemon's (MultiSink{MemorySink, TopKSink}, read a round whole),
// a reference that receives every detection through a FuncSink and emits it
// into sinks of its own one by one, and MultiSink{FuncSink, TopKSink}.
type drainRig struct {
	t       *testing.T
	engs    [3]*Engine
	mem     *MemorySink
	top     *TopKSink
	memRef  *MemorySink
	topRef  *TopKSink
	topMix  *TopKSink
	ref     []*Detection // every detection the reference engine emitted
	mix     []*Detection // every detection the mixed MultiSink's FuncSink received
	mixSeen map[*Detection]bool
	checked int // prefix of ref already compared with mix
	ids     map[string]bool
}

func newDrainRig(t *testing.T, subs []Subscription, ring, k int) *drainRig {
	t.Helper()
	r := &drainRig{
		t:   t,
		mem: NewMemorySink(ring), top: NewTopKSink(k),
		memRef: NewMemorySink(ring), topRef: NewTopKSink(k),
		topMix:  NewTopKSink(k),
		mixSeen: map[*Detection]bool{},
		ids:     map[string]bool{},
	}
	for _, s := range subs {
		r.ids[s.ID] = true
	}
	sinks := [3]Sink{
		MultiSink{r.mem, r.top},
		FuncSink(func(d *Detection) {
			r.ref = append(r.ref, d)
			r.memRef.Emit(d)
			r.topRef.Emit(d)
		}),
		MultiSink{FuncSink(func(d *Detection) {
			r.mix = append(r.mix, d)
			r.mixSeen[d] = true
		}), r.topMix},
	}
	for i := range r.engs {
		eng, err := NewEngine(Config{Subs: subs, DisableObs: true}, sinks[i])
		if err != nil {
			t.Fatal(err)
		}
		r.engs[i] = eng
	}
	return r
}

// each runs one call on every engine, checks that all three acknowledge the
// same number of detections, and compares the sinks.
func (r *drainRig) each(what string, call func(e *Engine) (int64, error)) {
	r.t.Helper()
	var dets [3]int64
	for i, e := range r.engs {
		n, err := call(e)
		if err != nil {
			r.t.Fatalf("%s: %v", what, err)
		}
		dets[i] = n
	}
	if dets[0] != dets[1] || dets[1] != dets[2] {
		r.t.Fatalf("%s: engines finalized %v detections", what, dets)
	}
	r.check(what)
}

func (r *drainRig) check(what string) {
	r.t.Helper()
	if got, want := r.mem.Recent("", 0), r.memRef.Recent("", 0); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("%s: ring holds %d detections, per-detection emission %d (or other ones)", what, len(got), len(want))
	}
	if got, want := r.mem.Total(), r.memRef.Total(); got != want {
		r.t.Fatalf("%s: ring total %d, per-detection emission %d", what, got, want)
	}
	if got, want := r.mem.Snapshot(), r.memRef.Snapshot(); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("%s: ring snapshots differ", what)
	}
	if got, want := r.top.Snapshot(), r.topRef.Snapshot(); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("%s: top-k snapshots differ", what)
	}
	for id := range r.ids {
		want := r.topRef.Top(id)
		if got := r.top.Top(id); !reflect.DeepEqual(got, want) {
			r.t.Fatalf("%s: Top(%s) = %d detections, per-detection emission %d (or other ones)", what, id, len(got), len(want))
		}
		got := r.topMix.Top(id)
		if !reflect.DeepEqual(got, want) {
			r.t.Fatalf("%s: Top(%s) behind a FuncSink differs from per-detection emission", what, id)
		}
		for _, d := range got {
			if !r.mixSeen[d] {
				r.t.Fatalf("%s: Top(%s) holds a detection its MultiSink's FuncSink never received", what, id)
			}
		}
	}
	if len(r.mix) != len(r.ref) {
		r.t.Fatalf("%s: FuncSink behind a MultiSink received %d detections, per-detection emission %d", what, len(r.mix), len(r.ref))
	}
	if !reflect.DeepEqual(r.mix[r.checked:], r.ref[r.checked:]) {
		r.t.Fatalf("%s: FuncSink behind a MultiSink received other detections, or in another order", what)
	}
	r.checked = len(r.ref)
}

// drainMix is one of the oracle's subscription mixes.
func drainMix(rng *rand.Rand, ladder bool) []Subscription {
	catalog := motif.Catalog()
	var subs []Subscription
	if ladder {
		mo := catalog[rng.Intn(4)]
		for i, delta := range []int64{300, 500} {
			for p := 0; p < 6; p++ {
				subs = append(subs, Subscription{ID: fmt.Sprintf("l%d-%d", i, p), Motif: mo, Delta: delta, Phi: float64(p) / 4})
			}
		}
		return subs
	}
	for i := 0; i < 8; i++ {
		subs = append(subs, Subscription{
			ID:    fmt.Sprintf("c%d", i),
			Motif: catalog[rng.Intn(len(catalog))],
			Delta: int64(200 + rng.Intn(700)),
			Phi:   float64(rng.Intn(4)) / 8,
		})
	}
	return subs
}

// drainStep is one call of a drain scenario, replayed on every engine; it
// returns the detections the call finalized.
type drainStep struct {
	what string
	call func(e *Engine) (int64, error)
	sub  string // the subscription an add brings in
}

// drainSchedule draws a scenario over evs: batches of random size, and
// between them now and then a flush (the stream then resumes past the
// windows it foreclosed), the catch-up add of a subscription handed off
// three δ behind, or the removal of a live subscription.
func drainSchedule(rng *rand.Rand, subs []Subscription, evs []temporal.Event) []drainStep {
	var steps []drainStep
	var fed []temporal.Event
	var shift, maxDelta int64
	var live []string
	for _, s := range subs {
		maxDelta = max(maxDelta, s.Delta)
		live = append(live, s.ID)
	}
	for i := 0; i < len(evs); {
		n := 1 + rng.Intn(80)
		batch := append([]temporal.Event(nil), evs[i:min(i+n, len(evs))]...)
		i += n
		for j := range batch {
			batch[j].T += shift
		}
		fed = append(fed, batch...)
		steps = append(steps, drainStep{what: "ingest", call: func(e *Engine) (int64, error) {
			ack, err := e.IngestWithAck(batch)
			return ack.Detections, err
		}})
		w := fed[len(fed)-1].T
		switch rng.Intn(12) {
		case 0:
			steps = append(steps, drainStep{what: "flush", call: func(e *Engine) (int64, error) {
				return e.FlushWithAck().Detections, nil
			}})
			if i < len(evs) {
				shift += max(0, w+maxDelta+1-(evs[i].T+shift))
			}
		case 1:
			s := drainMix(rng, false)[0]
			s.ID = fmt.Sprintf("add%d", len(steps))
			maxDelta = max(maxDelta, s.Delta)
			live = append(live, s.ID)
			emitted := w - 3*s.Delta
			var catchup []temporal.Event
			for _, ev := range fed {
				if ev.T >= emitted+1-s.Delta {
					catchup = append(catchup, ev)
				}
			}
			steps = append(steps, drainStep{what: "add " + s.ID, sub: s.ID, call: func(e *Engine) (int64, error) {
				before := e.Stats().Detections
				err := e.AddSubscription(s, AddOptions{Catchup: catchup, Emitted: emitted, Primed: true})
				return e.Stats().Detections - before, err
			}})
		case 2:
			if len(live) < 2 {
				break
			}
			j := rng.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			steps = append(steps, drainStep{what: "remove " + id, call: func(e *Engine) (int64, error) {
				_, err := e.RemoveSubscription(id)
				return 0, err
			}})
		}
	}
	return append(steps, drainStep{what: "final flush", call: func(e *Engine) (int64, error) {
		return e.FlushWithAck().Detections, nil
	}})
}

// TestRoundDrainEqualsPerDetection is the round drain's oracle: the serving
// sinks, read a round whole, must hold exactly what they hold when every
// detection is emitted into them one by one — over catalog mixes and
// one-shape φ ladders on 1/64-quantized flows (so flows tie), rings of one
// detection, smaller than a round and larger than every round, k from 1 to
// 50, and flushes, catch-up adds and removals between batches. A FuncSink
// in a MultiSink still receives every detection, and a TopKSink beside it
// keeps the very pointers the FuncSink received.
func TestRoundDrainEqualsPerDetection(t *testing.T) {
	const small = 16
	for seed := int64(1); seed <= 4; seed++ {
		ladder := seed%2 == 0
		rng := rand.New(rand.NewSource(seed))
		subs := drainMix(rng, ladder)
		steps := drainSchedule(rng, subs, exactFlows(streamEvents(t, 70+seed)))
		// A probe run sizes the rounds, so "larger than a round" holds.
		probe, err := NewEngine(Config{Subs: subs, DisableObs: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var largest, total int64
		adds := 0
		for _, st := range steps {
			n, err := st.call(probe)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, st.what, err)
			}
			largest, total = max(largest, n), total+n
			if st.sub != "" && n > 0 {
				adds++
			}
		}
		if largest <= small || total <= 2*(largest+1) || adds == 0 {
			t.Fatalf("degenerate scenario %d: largest round %d detections, %d in all, %d catch-up adds that emitted", seed, largest, total, adds)
		}
		for _, ring := range []int{1, small, int(largest) + 1} {
			for _, k := range []int{1, 3, 50} {
				t.Run(fmt.Sprintf("ladder=%v/seed=%d/ring=%d/k=%d", ladder, seed, ring, k), func(t *testing.T) {
					r := newDrainRig(t, subs, ring, k)
					for _, st := range steps {
						if st.sub != "" {
							r.ids[st.sub] = true
						}
						r.each(st.what, st.call)
					}
				})
			}
		}
	}
}

// TestRoundDetectionsOutliveTheirRound: a round's records point into the
// snapshot arena the next round rebuilds, so whatever a sink keeps must
// have been copied out during the drain. Detections the sinks hold after a
// round — the ring's, smaller and larger than a round, and the top-k's —
// must still equal the copies taken then three and more rounds later.
func TestRoundDetectionsOutliveTheirRound(t *testing.T) {
	evs := exactFlows(streamEvents(t, 81))
	tri := motif.MustPath(0, 1, 2, 0)
	var subs []Subscription
	for i, phi := range []float64{0, 0.5, 1, 2} {
		subs = append(subs, Subscription{ID: fmt.Sprintf("s%d", i), Motif: tri, Delta: 600, Phi: phi})
	}
	for _, ring := range []int{8, 4096} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			mem, top := NewMemorySink(ring), NewTopKSink(5)
			eng, err := NewEngine(Config{Subs: subs}, MultiSink{mem, top})
			if err != nil {
				t.Fatal(err)
			}
			type kept struct {
				clone *Detection
				round int
			}
			held := map[*Detection]kept{}
			rounds, maxRound, old := 0, int64(0), 0
			for i := 0; i < len(evs); i += 48 {
				ack, err := eng.IngestWithAck(evs[i:min(i+48, len(evs))])
				if err != nil {
					t.Fatal(err)
				}
				if ack.Detections == 0 {
					continue
				}
				rounds++
				maxRound = max(maxRound, ack.Detections)
				retained := mem.Recent("", 0)
				for _, s := range subs {
					retained = append(retained, top.Top(s.ID)...)
				}
				for _, d := range retained {
					if _, ok := held[d]; !ok {
						held[d] = kept{cloneDetection(d), rounds}
					}
				}
				for d, k := range held {
					if !reflect.DeepEqual(d, k.clone) {
						t.Fatalf("a detection kept since round %d changed by round %d:\n got %+v\nwant %+v", k.round, rounds, d, k.clone)
					}
					if rounds-k.round >= 3 {
						old++
					}
				}
			}
			if old == 0 || (ring < 100) != (maxRound > int64(ring)) {
				t.Fatalf("degenerate test: %d checks of detections 3+ rounds old, largest round %d vs ring %d", old, maxRound, ring)
			}
		})
	}
}

// TestRoundDrainLateReader: a round that fills the ring by itself stays in
// it as records until the ring is read, so a reader may come rounds later —
// after the arena the round's snapshot lived in was rebuilt, after a
// smaller round settled it, or never, when a larger round replaced it. Fed
// rounds smaller and larger than the ring, with reads only now and then,
// the ring must answer Recent, Snapshot, a RemoveSub→Inject handoff and a
// Restore exactly as a ring fed every detection one by one does, and hold
// the very detections the top-k list beside it kept.
func TestRoundDrainLateReader(t *testing.T) {
	tri := motif.MustPath(0, 1, 2, 0)
	var subs []Subscription
	for i, phi := range []float64{0, 0.5, 1, 2} {
		subs = append(subs, Subscription{ID: fmt.Sprintf("s%d", i), Motif: tri, Delta: 600, Phi: phi})
	}
	var small, large, settledByRound, lateReads, restoredOverPending, shared int
	for seed := int64(85); seed <= 87; seed++ {
		evs := exactFlows(streamEvents(t, seed))
		for _, ring := range []int{4, 12} {
			t.Run(fmt.Sprintf("seed=%d/ring=%d", seed, ring), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(ring)))
				mem, memRef, top := NewMemorySink(ring), NewMemorySink(ring), NewTopKSink(3)
				eng, err := NewEngine(Config{Subs: subs, DisableObs: true}, MultiSink{mem, top})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewEngine(Config{Subs: subs, DisableObs: true}, FuncSink(memRef.Emit))
				if err != nil {
					t.Fatal(err)
				}
				pending := func() bool { return mem.pending != nil && mem.pending.n > 0 }
				same := func(what string, got, want any) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: the late-read ring differs from per-detection emission", what)
					}
				}
				ingest := func(batch []temporal.Event) {
					t.Helper()
					was := pending()
					ack, err := eng.IngestWithAck(batch)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := ref.Ingest(batch); err != nil {
						t.Fatal(err)
					}
					switch n := int(ack.Detections); {
					case n >= ring:
						large++
					case n > 0:
						small++
						if was {
							settledByRound++
						}
					}
				}
				var older MemorySinkState // the reference ring a few reads ago
				for i, op := 0, 0; i < len(evs); op++ {
					// One to four batches with no read in between.
					for range 1 + rng.Intn(4) {
						n := min(1+rng.Intn(96), len(evs)-i)
						ingest(evs[i : i+n])
						i += n
					}
					late := pending()
					if late {
						lateReads++
					}
					id := subs[rng.Intn(len(subs))].ID
					if op%5 == 0 {
						older = memRef.Snapshot()
					}
					switch op % 5 {
					case 0:
						ring := map[string]*Detection{}
						for _, d := range mem.Recent("", 0) {
							ring[fmt.Sprint(d.Sub, d.DetectedAt, detKey(d))] = d
						}
						for _, s := range subs {
							for _, d := range top.Top(s.ID) {
								if o, ok := ring[fmt.Sprint(d.Sub, d.DetectedAt, detKey(d))]; ok {
									if o != d {
										t.Fatal("the ring and the top-k list hold two copies of one detection")
									}
									if late {
										shared++
									}
								}
							}
						}
						same("Recent", mem.Recent(id, 3), memRef.Recent(id, 3))
						same("Recent", mem.Recent("", 0), memRef.Recent("", 0))
					case 1:
						same("Snapshot", mem.Snapshot(), memRef.Snapshot())
					case 2:
						to, toRef := NewMemorySink(ring), NewMemorySink(ring)
						to.Inject(mem.RemoveSub(id))
						toRef.Inject(memRef.RemoveSub(id))
						same("RemoveSub→Inject", to.Snapshot(), toRef.Snapshot())
						same("RemoveSub", mem.Snapshot(), memRef.Snapshot())
					case 3:
						to := NewMemorySink(ring)
						to.Restore(mem.Snapshot())
						same("Snapshot→Restore", to.Snapshot(), memRef.Snapshot())
					case 4:
						// Restored over a pending tail, the ring holds the
						// snapshot and nothing of that round.
						if pending() {
							restoredOverPending++
						}
						st := older
						st.Total++
						memRef.Restore(st)
						mem.Restore(st)
						same("Restore", mem.Snapshot(), memRef.Snapshot())
					}
					same("Total", mem.Total(), memRef.Total())
				}
			})
		}
	}
	if small == 0 || large == 0 || settledByRound == 0 || lateReads < 8 || restoredOverPending == 0 || shared == 0 {
		t.Fatalf("degenerate test: %d rounds smaller than the ring, %d at least its size, %d pending tails settled by the next round, %d reads of a pending tail, %d restores over one, %d detections of a pending tail in both sinks",
			small, large, settledByRound, lateReads, restoredOverPending, shared)
	}
}

// TestMemorySinkRoundAllocsWhenWarm: once its tail buffers have grown, a
// ring that a round fills by itself costs a copy of the round's tail and
// no allocation, beside a top-k list whose bars the round does not beat.
func TestMemorySinkRoundAllocsWhenWarm(t *testing.T) {
	g, err := temporal.NewGraph([]temporal.Event{{From: 0, To: 1, T: 1, F: 1}, {From: 0, To: 1, T: 2, F: 2}, {From: 0, To: 1, T: 3, F: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tri := motif.MustPath(0, 1, 2, 0)
	members := make([]*subState, 4)
	for i := range members {
		members[i] = &subState{sub: Subscription{ID: fmt.Sprintf("s%d", i), Motif: tri}}
	}
	data := make([]byte, 3*200)
	rand.New(rand.NewSource(7)).Read(data)
	r := fuzzRound(g, members, data, 0)
	recs := append([]detRecord(nil), r.recs...)
	mem := NewMemorySink(128)
	var s Sink = MultiSink{mem, NewTopKSink(4)}
	round := func() {
		// The same round again, recorded into the warm slabs.
		for _, rec := range recs {
			in := core.Instance{
				Nodes: []temporal.NodeID{0, 1}, Arcs: []int{0}, Spans: []core.Span{{Start: 0, End: int32(rec.end)}},
				EdgeFlows: []float64{rec.flow}, Flow: rec.flow, Start: rec.start, End: rec.end,
			}
			r.record(&in, int(rec.sub), int(rec.admitted), rec.watermark)
		}
		if r.n < mem.size {
			t.Fatalf("degenerate test: a round of %d detections, ring of %d", r.n, mem.size)
		}
		r.emit(s)
	}
	for range 3 {
		round()
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("warm ring, round of its size or more: %v allocations, want 0", n)
	}
	if got := len(mem.Recent("", 0)); got != mem.size {
		t.Fatalf("ring holds %d detections after the rounds, want %d", got, mem.size)
	}
}

// TestRoundDrainAfterSinkPanic: a sink that panics ends its drain early,
// and the engine must still start the next round empty — not on the
// panicked round's records, whose spans index a snapshot the next round
// recycles. An engine whose sink panics once, after the serving sinks
// took its round, must keep them equal to a reference engine's.
func TestRoundDrainAfterSinkPanic(t *testing.T) {
	evs := exactFlows(streamEvents(t, 83))
	tri := motif.MustPath(0, 1, 2, 0)
	var subs []Subscription
	for i, phi := range []float64{0, 1, 2} {
		subs = append(subs, Subscription{ID: fmt.Sprintf("s%d", i), Motif: tri, Delta: 600, Phi: phi})
	}
	memRef, topRef := NewMemorySink(16), NewTopKSink(3)
	ref, err := NewEngine(Config{Subs: subs}, MultiSink{memRef, topRef})
	if err != nil {
		t.Fatal(err)
	}
	mem, top := NewMemorySink(16), NewTopKSink(3)
	armed, panicked := false, 0
	eng, err := NewEngine(Config{Subs: subs}, MultiSink{mem, top, FuncSink(func(*Detection) {
		if armed {
			armed = false
			panic("sink failure")
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(batch []temporal.Event) {
		defer func() {
			if recover() != nil {
				panicked++
			}
		}()
		if _, err := eng.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	after := 0
	for i := 0; i < len(evs); i += 48 {
		batch := evs[i:min(i+48, len(evs))]
		ack, err := ref.IngestWithAck(batch)
		if err != nil {
			t.Fatal(err)
		}
		if panicked > 0 && ack.Detections > 0 {
			after++
		}
		armed = ack.Detections > 0 && panicked == 0 && i > len(evs)/4
		ingest(batch)
		if !reflect.DeepEqual(mem.Snapshot(), memRef.Snapshot()) || !reflect.DeepEqual(top.Snapshot(), topRef.Snapshot()) {
			t.Fatalf("batch at %d (%d sink panics): serving sinks differ from the reference's", i, panicked)
		}
	}
	if panicked != 1 || after < 3 {
		t.Fatalf("degenerate test: %d sink panics, %d rounds with detections after one", panicked, after)
	}
}

// TestRoundDrainConcurrentReaders queries the serving sinks while rounds
// drain into them, and moves a subscription's top-k list out and back
// meanwhile (the handoff's sink half): under -race this covers the drain
// reading top-k heaps under drainMu alone. Every ring total a reader sees
// must be one the ring had between two calls — a round lands whole.
func TestRoundDrainConcurrentReaders(t *testing.T) {
	evs := exactFlows(streamEvents(t, 91))
	tri := motif.MustPath(0, 1, 2, 0)
	var subs []Subscription
	for i, phi := range []float64{0, 0.5, 1} {
		subs = append(subs, Subscription{ID: fmt.Sprintf("s%d", i), Motif: tri, Delta: 600, Phi: phi})
	}
	mem, top := NewMemorySink(64), NewTopKSink(4)
	eng, err := NewEngine(Config{Subs: subs}, MultiSink{mem, top})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seen[mem.Snapshot().Total] = true
			mem.Recent("s1", 5)
			top.Snapshot()
			for _, s := range subs {
				top.Top(s.ID)
			}
			top.Inject(top.RemoveSub("s2"))
		}
	}()
	boundary := map[int64]bool{0: true}
	var total int64
	for i := 0; i < len(evs); i += 32 {
		ack, err := eng.IngestWithAck(evs[i:min(i+32, len(evs))])
		if err != nil {
			t.Fatal(err)
		}
		total += ack.Detections
		boundary[total] = true
	}
	close(stop)
	wg.Wait()
	if total == 0 {
		t.Fatal("degenerate test: no detections")
	}
	for n := range seen {
		if !boundary[n] {
			t.Errorf("a reader saw the ring at total %d, between two rounds' totals", n)
		}
	}
}

// fuzzRound builds a synthetic round from fuzz input over a one-arc graph:
// each record takes its admitted count (at least one, within the members
// left from its offset) and its flow and span from three bytes, on a coarse
// grid so ranks tie. Records are numbered from seq on through their
// watermark, so detections of equal rank still differ.
func fuzzRound(g *temporal.Graph, members []*subState, data []byte, seq int64) *detRound {
	r := &detRound{g: g, members: members}
	for ; len(data) >= 3; data, seq = data[3:], seq+1 {
		sub := int(data[0]) % len(members)
		admitted := 1 + int(data[1])%(len(members)-sub)
		end := int32(1 + int(data[2]>>4)%g.SeriesLen(0))
		in := core.Instance{
			Nodes:     []temporal.NodeID{0, 1},
			Arcs:      []int{0},
			Spans:     []core.Span{{Start: 0, End: end}},
			EdgeFlows: []float64{float64(data[2]&15) / 4},
			Flow:      float64(data[2]&15) / 4,
			Start:     1,
			End:       int64(end),
		}
		r.record(&in, sub, admitted, seq)
	}
	return r
}

// FuzzRoundDrain compares the round drain of the serving sinks with
// per-detection emission on synthetic rounds: the ring capacity, k, and each
// record's admitted count and flow come from the input, which is cut into
// two rounds so the second one meets the state the first one left.
func FuzzRoundDrain(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{0, 3, 0x17, 1, 0, 0x25, 2, 1, 0x17, 0, 0, 0x08})
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0xff, 0, 0, 0xff, 3, 0, 0x10})
	f.Add(uint8(40), uint8(50), []byte{0, 2, 0x31, 2, 1, 0x31, 1, 2, 0x42, 0, 3, 0x01, 3, 0, 0x31})
	g, err := temporal.NewGraph([]temporal.Event{{From: 0, To: 1, T: 1, F: 1}, {From: 0, To: 1, T: 2, F: 2}, {From: 0, To: 1, T: 3, F: 1}})
	if err != nil {
		f.Fatal(err)
	}
	tri := motif.MustPath(0, 1, 2, 0)
	members := make([]*subState, 4)
	for i := range members {
		members[i] = &subState{sub: Subscription{ID: fmt.Sprintf("s%d", i), Motif: tri}}
	}
	f.Fuzz(func(t *testing.T, ring, k uint8, data []byte) {
		// Two rounds of up to 32 records each are enough to meet every
		// ring and heap state; longer inputs only slow minimization.
		data = data[:min(len(data), 192)]
		mem, top := NewMemorySink(int(ring%64)), NewTopKSink(int(k%64))
		memRef, topRef := NewMemorySink(int(ring%64)), NewTopKSink(int(k%64))
		// late takes both rounds alone and is read only after the second.
		late := NewMemorySink(int(ring % 64))
		ref := FuncSink(func(d *Detection) {
			memRef.Emit(d)
			topRef.Emit(d)
		})
		cut := len(data) / 2
		for i, part := range [][]byte{data[:cut-cut%3], data[cut-cut%3:]} {
			fuzzRound(g, members, part, int64(i*64)).emit(MultiSink{mem, top})
			fuzzRound(g, members, part, int64(i*64)).emit(ref)
			if got, want := mem.Snapshot(), memRef.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("ring: round drain %+v, per-detection emission %+v", got, want)
			}
			if got, want := top.Snapshot(), topRef.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("top-k: round drain %+v, per-detection emission %+v", got, want)
			}
			fuzzRound(g, members, part, int64(i*64)).emit(late)
		}
		if got, want := late.Snapshot(), memRef.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("ring read after both rounds: round drain %+v, per-detection emission %+v", got, want)
		}
	})
}
