package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// TestStreamSharedShapePlannerEquivalence is the planner oracle demanded
// by the shared-evaluation refactor: many subscriptions sharing one motif
// shape under distinct (δ, φ) combinations — the regime where plan groups
// share a snapshot and one phase-P1 match list — must detect exactly the
// batch instance set, per subscription, with no cross-subscription state
// bleed. The stream additionally churns membership mid-flight: one
// shared-shape subscription is removed and re-added through the handoff
// protocol, and a fresh subscription joins unprimed ("from now on"). The
// δ=500 triangles form one sweep group of five thresholds (six with the
// late joiner): the member that leaves and comes back is its smallest φ —
// the threshold the sweep runs at — resuming from an Emitted behind its
// group-mates, and the late joiner's bound sits ahead of theirs, so for one
// round the group's due band holds two emitted bounds.
func TestStreamSharedShapePlannerEquivalence(t *testing.T) {
	evs := streamEvents(t, 21)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}

	tri := motif.MustPath(0, 1, 2, 0) // shared shape: the triangle
	chain := motif.MustPath(0, 1, 2)  // second shape riding along
	combos := []struct {
		delta int64
		phi   float64
	}{
		{200, 0}, {200, 3}, {500, 0}, {500, 5}, {900, 2}, {900, 0},
		{500, 2}, {500, 5}, {500, 3.5},
	}
	var subs []Subscription
	for i, c := range combos {
		subs = append(subs, Subscription{ID: fmt.Sprintf("tri%d", i), Motif: tri, Delta: c.delta, Phi: c.phi})
	}
	for i, c := range combos[:3] {
		subs = append(subs, Subscription{ID: fmt.Sprintf("ch%d", i), Motif: chain, Delta: c.delta, Phi: c.phi})
	}
	late := Subscription{ID: "late", Motif: tri, Delta: 500, Phi: 1}

	t.Run("shared", func(t *testing.T) {
		got := map[string]map[string]bool{}
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

		feed := func(evs []temporal.Event, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < len(evs); {
				n := 1 + rng.Intn(50)
				if i+n > len(evs) {
					n = len(evs) - i
				}
				batch := append([]temporal.Event(nil), evs[i:i+n]...)
				rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
				if _, err := eng.Ingest(batch); err != nil {
					t.Fatal(err)
				}
				i += n
			}
		}

		half := len(evs) / 2
		feed(evs[:half], 7)
		// Churn a shared-shape member: remove it, keep streaming a
		// little, then resume it exactly where it left off (the cluster
		// re-placement protocol, here within one engine). Its plan
		// group must give it up and take it back without disturbing the
		// siblings sharing the shape.
		rem, err := eng.RemoveSubscription("tri2")
		if err != nil {
			t.Fatal(err)
		}
		if rem.Sub.Delta != 500 || rem.Sub.Phi != 0 {
			t.Fatalf("tri2 is (δ=%d, φ=%v), want its group's smallest φ", rem.Sub.Delta, rem.Sub.Phi)
		}
		// Stream on for a bounded stretch (< the survivors' retention
		// horizon) so the handoff's catch-up still meets the engine's
		// retained suffix when the subscription comes back.
		gap := half
		for gap < 2*len(evs)/3 && evs[gap].T-evs[half-1].T < 600 {
			gap++
		}
		feed(evs[half:gap], 8)
		err = eng.AddSubscription(rem.Sub, AddOptions{
			Catchup: rem.Events,
			Emitted: rem.Emitted,
			Primed:  rem.Primed,
		})
		if err != nil {
			t.Fatal(err)
		}
		twoThirds := 2 * len(evs) / 3
		feed(evs[gap:twoThirds], 9)
		// A fresh shared-shape subscription joins unprimed: it observes
		// only windows anchored after the join watermark.
		wJoin, ok := eng.Watermark()
		if !ok {
			t.Fatal("engine not started at join time")
		}
		if err := eng.AddSubscription(late, AddOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, s := range eng.Stats().Subs {
			if s.ID == "tri3" && s.EmittedThrough >= wJoin {
				t.Fatalf("late joiner's bound %d is not ahead of its group-mates' %d", wJoin, s.EmittedThrough)
			}
		}
		feed(evs[twoThirds:], 10)
		eng.Flush()

		check := func(sub Subscription, anchorLo int64) {
			p := core.Params{Delta: sub.Delta, Phi: sub.Phi}
			want, err := collectRange(g, sub.Motif, p, anchorLo, math.MaxInt64)
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
		for _, sub := range subs {
			check(sub, math.MinInt64)
		}
		check(late, wJoin+1)

		st := eng.Stats()
		// tri δ∈{200,500,900} (late joined the 500 group) + chain
		// δ∈{200,500}: five plan groups.
		if st.PlanGroups != 5 {
			t.Errorf("PlanGroups = %d, want 5", st.PlanGroups)
		}
		if st.SnapshotBuilds == 0 {
			t.Error("SnapshotBuilds = 0: no snapshot accounting")
		}
		// The whole point of the planner: one snapshot serves many
		// bands and one match walk serves many subscriptions.
		if st.SnapshotReuse < 2 {
			t.Errorf("SnapshotReuse = %.2f under the shared planner, want >= 2", st.SnapshotReuse)
		}
		if st.MatchesShared == 0 {
			t.Error("MatchesShared = 0: shared-shape subscriptions did not share phase P1")
		}
		var bands int64
		for _, s := range st.Subs {
			bands += s.Bands
		}
		if st.MatchRuns >= bands {
			t.Errorf("MatchRuns = %d not below bands = %d: phase P1 is not shared", st.MatchRuns, bands)
		}
	})
}

// TestIngestAppendFailStop is the regression for the partial-append error
// path: when an append fails mid-batch (simulated via the test hook — in
// production the batch is pre-validated, so this is a should-not-happen
// divergence), the engine fail-stops like the cluster WAL-poison path:
// the failing call reports ErrFailStopped with the partial count, and
// every later ingest/flush/add is refused instead of building on the
// diverged log.
func TestIngestAppendFailStop(t *testing.T) {
	sink := NewMemorySink(16)
	eng, err := NewEngine(Config{Subs: []Subscription{
		{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5},
	}}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 10, F: 1}}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	eng.appendHook = func(i int) error {
		if i == 1 {
			return boom
		}
		return nil
	}
	ack, err := eng.IngestWithAck([]temporal.Event{
		{From: 0, To: 1, T: 20, F: 1},
		{From: 0, To: 1, T: 21, F: 1},
		{From: 0, To: 1, T: 22, F: 1},
	})
	if !errors.Is(err, ErrFailStopped) {
		t.Fatalf("partial append: err = %v, want ErrFailStopped", err)
	}
	if ack.Ingested != 1 {
		t.Fatalf("partial append ack.Ingested = %d, want 1 (the applied prefix)", ack.Ingested)
	}

	// Poisoned: later calls are refused even though the hook would now pass.
	eng.appendHook = nil
	if _, err := eng.Ingest([]temporal.Event{{From: 0, To: 1, T: 100, F: 1}}); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("ingest after fail-stop: err = %v, want ErrFailStopped", err)
	}
	if _, err := eng.IngestWithAck(nil); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("empty ingest after fail-stop: err = %v, want ErrFailStopped", err)
	}
	// Membership changes are fenced too: an add would finalize bands over
	// the diverged log, a remove would export it as handoff catch-up.
	err = eng.AddSubscription(Subscription{ID: "t", Motif: motif.MustPath(0, 1)}, AddOptions{})
	if !errors.Is(err, ErrFailStopped) {
		t.Fatalf("add after fail-stop: err = %v, want ErrFailStopped", err)
	}
	if _, err := eng.RemoveSubscription("s"); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("remove after fail-stop: err = %v, want ErrFailStopped", err)
	}
	// Snapshots are refused: checkpointing the diverged log would launder
	// the partial batch into the authoritative recovery state.
	if _, err := eng.Snapshot(); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("snapshot after fail-stop: err = %v, want ErrFailStopped", err)
	}
	if err := eng.Err(); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("Err() = %v, want ErrFailStopped", err)
	}
	if ack := eng.FlushWithAck(); ack.Started || ack.Detections != 0 {
		t.Fatalf("flush after fail-stop = %+v, want inert zero ack", ack)
	}
	if n := sink.Total(); n != 0 {
		t.Fatalf("fail-stopped engine emitted %d detections past the poison point", n)
	}
}

// TestIngestPresortedBatchNotCopied pins the monotone-producer fast path:
// an already time-ordered batch is read in place — the caller's slice is
// never reordered — while an unordered batch still round-trips through the
// engine's scratch sort without mutating the caller's slice either.
func TestIngestPresortedBatchNotCopied(t *testing.T) {
	eng, err := NewEngine(Config{Subs: []Subscription{
		{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sorted := []temporal.Event{
		{From: 0, To: 1, T: 1, F: 1},
		{From: 0, To: 1, T: 2, F: 2},
		{From: 0, To: 1, T: 3, F: 3},
	}
	orig := append([]temporal.Event(nil), sorted...)
	if _, err := eng.Ingest(sorted); err != nil {
		t.Fatal(err)
	}
	unsorted := []temporal.Event{
		{From: 0, To: 1, T: 9, F: 9},
		{From: 0, To: 1, T: 7, F: 7},
		{From: 0, To: 1, T: 8, F: 8},
	}
	origU := append([]temporal.Event(nil), unsorted...)
	if _, err := eng.Ingest(unsorted); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if sorted[i] != orig[i] {
			t.Fatalf("presorted batch mutated at %d: %+v", i, sorted[i])
		}
	}
	for i := range origU {
		if unsorted[i] != origU[i] {
			t.Fatalf("unsorted batch mutated at %d: %+v", i, unsorted[i])
		}
	}
	if w, _ := eng.Watermark(); w != 9 {
		t.Fatalf("watermark = %d, want 9", w)
	}
}

// BenchmarkIngestBatchOrder demonstrates the sorted-batch fast path: the
// common monotone-producer case (batches already time-ordered) skips the
// per-batch copy + stable sort entirely. The subscription is deliberately
// cheap (2-node chain, tiny δ, prohibitive φ) so the sort dominates.
func BenchmarkIngestBatchOrder(b *testing.B) {
	const batchLen = 4096
	mk := func(shuffle bool) [][]temporal.Event {
		rng := rand.New(rand.NewSource(42))
		batches := make([][]temporal.Event, 64)
		t := int64(0)
		for i := range batches {
			batch := make([]temporal.Event, batchLen)
			for j := range batch {
				batch[j] = temporal.Event{From: temporal.NodeID(j % 64), To: temporal.NodeID(j%64 + 1), T: t, F: 1}
				if j%3 == 0 {
					t++
				}
			}
			if shuffle {
				rng.Shuffle(len(batch), func(a, c int) { batch[a], batch[c] = batch[c], batch[a] })
			}
			batches[i] = batch
		}
		return batches
	}
	for _, mode := range []struct {
		name    string
		shuffle bool
	}{{"presorted", false}, {"shuffled", true}} {
		batches := mk(mode.shuffle)
		span := int64(0)
		for _, batch := range batches {
			for _, e := range batch {
				if e.T+10 > span {
					span = e.T + 10
				}
			}
		}
		b.Run(mode.name, func(b *testing.B) {
			eng, err := NewEngine(Config{Subs: []Subscription{
				{ID: "s", Motif: motif.MustPath(0, 1), Delta: 2, Phi: math.MaxFloat64},
			}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			scratch := make([]temporal.Event, batchLen)
			b.ResetTimer()
			for pass := 0; pass < b.N; pass++ {
				offset := int64(pass) * span
				for _, batch := range batches {
					copy(scratch, batch)
					for j := range scratch {
						scratch[j].T += offset
					}
					if _, err := eng.Ingest(scratch); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			total := float64(b.N) * float64(len(batches)*batchLen)
			b.ReportMetric(total/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
