package stream

import (
	"math"
	"math/rand"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// TestLongStreamOneWalkPerRound drives the round structure of the planner
// for a long time: hundreds of finalize rounds, each one phase-P1 walk over
// the trie of all ten catalog shapes, with same-shape subscriptions at other
// (δ, φ) widening some trie nodes' δ and anchor hull beyond what their
// neighbours need, and a subscription that joins mid-stream. Every
// subscription must detect exactly the batch instance set, and the walk
// must have run once per snapshot built.
func TestLongStreamOneWalkPerRound(t *testing.T) {
	evs := exactFlows(streamEvents(t, 11))
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	catalog := motif.Catalog()
	var subs []Subscription
	for _, mo := range catalog {
		subs = append(subs, Subscription{ID: mo.Name(), Motif: mo, Delta: 300, Phi: 1})
	}
	subs = append(subs,
		Subscription{ID: "tri-wide", Motif: catalog[1], Delta: 700},
		Subscription{ID: "tri-strict", Motif: catalog[1], Delta: 300, Phi: 4},
		Subscription{ID: "chain-short", Motif: catalog[0], Delta: 100, Phi: 1},
		Subscription{ID: "path-long", Motif: catalog[2], Delta: 500, Phi: 3},
	)
	late := Subscription{ID: "late", Motif: catalog[4], Delta: 200, Phi: 1}

	// The engine finalizes on one goroutine; the subtest keeps the name the
	// serial run has always been reported under.
	t.Run("workers=1", func(t *testing.T) {
		got := map[string]map[string]bool{}
		eng, err := NewEngine(Config{Subs: subs}, FuncSink(func(d *Detection) {
			if got[d.Sub] == nil {
				got[d.Sub] = map[string]bool{}
			}
			k := detKey(d)
			if got[d.Sub][k] {
				t.Errorf("sub %s: duplicate detection %s", d.Sub, k)
			}
			got[d.Sub][k] = true
		}))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		var wJoin int64
		for i, joined := 0, false; i < len(evs); {
			if !joined && i >= len(evs)/2 {
				wJoin, _ = eng.Watermark()
				if err := eng.AddSubscription(late, AddOptions{}); err != nil {
					t.Fatal(err)
				}
				joined = true
			}
			n := min(1+rng.Intn(8), len(evs)-i)
			if _, err := eng.Ingest(evs[i : i+n]); err != nil {
				t.Fatal(err)
			}
			i += n
		}
		eng.Flush()

		check := func(sub Subscription, anchorLo int64) {
			want, err := core.CollectRange(g, sub.Motif, core.Params{Delta: sub.Delta, Phi: sub.Phi}, anchorLo, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("degenerate test: no batch instances for %s", sub.ID)
			}
			wantKeys := map[string]bool{}
			for _, in := range want {
				wantKeys[batchKey(g, in)] = true
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
		if st.MatchRuns < 200 {
			t.Errorf("only %d finalize rounds: not a long stream", st.MatchRuns)
		}
		if st.MatchRuns != st.SnapshotBuilds {
			t.Errorf("MatchRuns = %d, SnapshotBuilds = %d: want one walk per round", st.MatchRuns, st.SnapshotBuilds)
		}
	})
}

// TestEngineAtTimelineEnds: a triangle whose window reaches past either end
// of the int64 timeline is detected like any other (window arithmetic
// saturates in the engine and in core alike). The low end starts one past
// MinInt64, which the engine's emitted-through bound needs for "no anchor
// finalized yet".
func TestEngineAtTimelineEnds(t *testing.T) {
	for _, base := range []int64{1000, math.MaxInt64 - 8, math.MinInt64 + 1} {
		sink := NewMemorySink(4)
		eng, err := NewEngine(Config{Subs: []Subscription{
			{ID: "tri", Motif: motif.MustPath(0, 1, 2, 0), Delta: 10, Phi: 1},
		}}, sink)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Ingest([]temporal.Event{
			{From: 0, To: 1, T: base, F: 2},
			{From: 1, To: 2, T: base + 2, F: 3},
			{From: 2, To: 0, T: base + 4, F: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		ds := sink.Recent("tri", 0)
		if len(ds) != 1 || ds[0].Start != base || ds[0].End != base+4 || ds[0].Flow != 2 {
			t.Errorf("base %d: detections = %+v, want the one triangle", base, ds)
		}
	}
}
