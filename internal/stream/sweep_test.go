package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// runSubs streams evs through a fresh engine in 64-event batches plus a
// final flush and returns each subscription's detections in emission order.
func runSubs(t *testing.T, subs []Subscription, evs []temporal.Event) map[string][]*Detection {
	t.Helper()
	got := map[string][]*Detection{}
	eng, err := NewEngine(Config{Subs: subs}, FuncSink(func(d *Detection) {
		got[d.Sub] = append(got[d.Sub], d)
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
	return got
}

func detKeys(ds []*Detection) []string {
	keys := make([]string, len(ds))
	for i, d := range ds {
		keys[i] = detKey(d)
	}
	return keys
}

// exactFlows rounds every flow to a multiple of 1/64, so edge-set sums are
// exact whatever graph and prefix-sum base they are computed over and a
// whole-graph batch search is a valid reference even for a threshold equal
// to a flow that occurs.
func exactFlows(evs []temporal.Event) []temporal.Event {
	out := append([]temporal.Event(nil), evs...)
	for i := range out {
		out[i].F = math.Max(math.Floor(out[i].F*64), 1) / 64
	}
	return out
}

// TestSweepGroupEqualsPerPhiSearches is the engine half of the sweep
// oracle. A plan group of many thresholds — drawn from the edge-set flows
// that occur (ties at the cut), with duplicates and φ = 0, added in
// no φ order — plus a same-shape rider at another δ (a group of one
// over the shared match list) must give every subscription what a search of
// its own gives it:
//
//   - with raw float flows, an engine holding that subscription alone (the
//     fused core.EnumerateRange walk over the same snapshots — a whole-graph
//     search sums the same events from another prefix base, so it may land
//     an ulp to the other side of a tied threshold), in emission order too:
//     the sweep moves only how subscriptions interleave, never one
//     subscription's own sequence;
//   - with exact flows, also core.CollectRange over the whole event log.
func TestSweepGroupEqualsPerPhiSearches(t *testing.T) {
	for ci, c := range []struct {
		mo    *motif.Motif
		delta int64
		exact bool
	}{
		{motif.MustPath(0, 1, 2, 0), 500, false},
		{motif.MustPath(0, 1, 2), 200, false},
		{motif.MustPath(0, 1, 2, 3), 400, true},
		{motif.MustPath(0, 1, 2, 0), 700, true},
	} {
		t.Run(fmt.Sprintf("%s/d%d/exact=%v", c.mo.ShapeKey(), c.delta, c.exact), func(t *testing.T) {
			evs := streamEvents(t, int64(40+ci))
			if c.exact {
				evs = exactFlows(evs)
			}
			own := func(s Subscription) []*Detection { return runSubs(t, []Subscription{s}, evs)[s.ID] }
			all := own(Subscription{ID: "all", Motif: c.mo, Delta: c.delta})
			if len(all) < 20 {
				t.Fatalf("degenerate test: %d instances at φ=0", len(all))
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			phis := []float64{0}
			for len(phis) < 9 {
				// Non-final edge-sets of several events are where the walk's
				// running sum and FlowRange can differ in the last bits.
				d := all[rng.Intn(len(all))]
				e := rng.Intn(len(d.EdgeFlows) - 1)
				if len(d.Edges[e]) < 2 && rng.Intn(4) > 0 {
					continue
				}
				f := d.EdgeFlows[e]
				phis = append(phis, f)
				if len(phis)%4 == 0 {
					phis = append(phis, f) // duplicate threshold
				}
			}
			var subs []Subscription
			for i, phi := range phis {
				subs = append(subs, Subscription{ID: fmt.Sprintf("phi%d", i), Motif: c.mo, Delta: c.delta, Phi: phi})
			}
			subs = append(subs, Subscription{ID: "rider", Motif: c.mo, Delta: c.delta / 2, Phi: phis[3]})

			swept := runSubs(t, subs, evs)
			var g *temporal.Graph
			if c.exact {
				var err error
				if g, err = temporal.NewGraph(evs); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range subs {
				want := detKeys(own(s))
				got := detKeys(swept[s.ID])
				if !reflect.DeepEqual(got, want) {
					t.Errorf("sub %s (φ=%v): sweep emitted %d detections, its own engine %d, or in another order",
						s.ID, s.Phi, len(got), len(want))
				}
				if !c.exact {
					continue
				}
				sort.Strings(got)
				ins, err := core.CollectRange(g, s.Motif, core.Params{Delta: s.Delta, Phi: s.Phi}, math.MinInt64, math.MaxInt64)
				if err != nil {
					t.Fatal(err)
				}
				batch := make([]string, len(ins))
				for i, in := range ins {
					batch[i] = batchKey(g, in)
				}
				sort.Strings(batch)
				if !reflect.DeepEqual(got, batch) {
					t.Errorf("sub %s (φ=%v): sweep set (%d) != core.CollectRange (%d)", s.ID, s.Phi, len(got), len(batch))
				}
			}
		})
	}
}

// TestSweepMixedEmittedBounds drives the round in which a plan group's due
// members do not share an emitted bound, with the odd one out *behind* its
// group-mates: after a mid-stream flush (everyone finalized through the
// watermark) a member arrives by handoff with an older Emitted, catches up
// alone as far as ordinary finalization reaches, and then shares the next
// due band with mates that sit further on. The smallest-φ member — the one
// whose threshold the sweep runs at — leaves between the same two rounds.
// Every subscription must still get exactly its batch instance set.
func TestSweepMixedEmittedBounds(t *testing.T) {
	const delta = 300
	base := exactFlows(streamEvents(t, 51))
	cut := len(base) / 2
	first, second := base[:cut], append([]temporal.Event(nil), base[cut:]...)
	t1 := first[len(first)-1].T
	// The stream resumes after a gap the flush makes mandatory (> max δ).
	shift := t1 + 2*delta - second[0].T
	for i := range second {
		second[i].T += shift
	}
	evs := append(append([]temporal.Event(nil), first...), second...)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	tri := motif.MustPath(0, 1, 2, 0)

	// The engine finalizes on one goroutine; the subtest keeps the name the
	// serial run has always been reported under.
	t.Run("workers=1", func(t *testing.T) {
		got := map[string]map[string]bool{}
		var subs []Subscription
		for i, phi := range []float64{0, 1, 2.5, 4, 4} {
			subs = append(subs, Subscription{ID: fmt.Sprintf("m%d", i), Motif: tri, Delta: delta, Phi: phi})
		}
		eng, err := NewEngine(Config{Subs: subs}, FuncSink(func(d *Detection) {
			if got[d.Sub] == nil {
				got[d.Sub] = map[string]bool{}
			}
			if k := detKey(d); got[d.Sub][k] {
				t.Errorf("sub %s: duplicate detection %s", d.Sub, k)
			} else {
				got[d.Sub][k] = true
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		feed := func(evs []temporal.Event) {
			for i := 0; i < len(evs); i += 40 {
				if _, err := eng.Ingest(evs[i:min(i+40, len(evs))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		feed(first)
		eng.Flush()

		// Handoff from "elsewhere": anchors through t1−3δ are done.
		behind := Subscription{ID: "behind", Motif: tri, Delta: delta, Phi: 2}
		emitted := t1 - 3*delta
		var catchup []temporal.Event
		for _, ev := range first {
			if ev.T >= emitted+1-delta {
				catchup = append(catchup, ev)
			}
		}
		if err := eng.AddSubscription(behind, AddOptions{Catchup: catchup, Emitted: emitted, Primed: true}); err != nil {
			t.Fatal(err)
		}
		rem, err := eng.RemoveSubscription("m0")
		if err != nil {
			t.Fatal(err)
		}
		through := map[string]int64{}
		for _, s := range eng.Stats().Subs {
			through[s.ID] = s.EmittedThrough
		}
		if !(emitted < through["behind"] && through["behind"] < through["m1"]) {
			t.Fatalf("scenario lost: newcomer through %d (handed off at %d), mates through %d",
				through["behind"], emitted, through["m1"])
		}
		feed(second)
		eng.Flush()
		for _, s := range eng.Stats().Subs {
			if s.EmittedThrough != second[len(second)-1].T {
				t.Errorf("sub %s finalized through %d, want the final watermark", s.ID, s.EmittedThrough)
			}
		}

		check := func(sub Subscription, lo, hi int64) {
			ins, err := core.CollectRange(g, sub.Motif, core.Params{Delta: sub.Delta, Phi: sub.Phi}, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if len(ins) == 0 {
				t.Fatalf("degenerate test: no batch instances for %s", sub.ID)
			}
			want := map[string]bool{}
			for _, in := range ins {
				want[batchKey(g, in)] = true
			}
			if !reflect.DeepEqual(got[sub.ID], want) {
				t.Errorf("sub %s: %d detections, batch search has %d (or other ones)", sub.ID, len(got[sub.ID]), len(want))
			}
		}
		check(subs[0], math.MinInt64, rem.Emitted)
		for _, s := range subs[1:] {
			check(s, math.MinInt64, math.MaxInt64)
		}
		check(behind, emitted+1, math.MaxInt64)
	})
}

// cloneDetection builds a private deep copy sharing no memory with d.
func cloneDetection(d *Detection) *Detection {
	c := *d
	c.Nodes = append([]temporal.NodeID(nil), d.Nodes...)
	c.EdgeFlows = append([]float64(nil), d.EdgeFlows...)
	c.Edges = make([][]temporal.Point, len(d.Edges))
	for i, es := range d.Edges {
		c.Edges[i] = append([]temporal.Point(nil), es...)
	}
	return &c
}

// TestSharedPayloadContract pins the read-only contract of Detection's
// slices. A sweep group's subscribers receive headers over one payload per
// instance; after the detections have been through everything the package's
// own sinks do with them — ring and heap retention, Snapshot/Restore, the
// RemoveSub/Inject handoff — each must still equal the private copy taken
// when it was emitted: nothing wrote through a shared slice.
func TestSharedPayloadContract(t *testing.T) {
	evs := streamEvents(t, 61)
	tri := motif.MustPath(0, 1, 2, 0)
	var subs []Subscription
	for i, phi := range []float64{0, 1, 2, 3} {
		subs = append(subs, Subscription{ID: fmt.Sprintf("s%d", i), Motif: tri, Delta: 500, Phi: phi})
	}
	mem, top := NewMemorySink(4096), NewTopKSink(8)
	private := map[*Detection]*Detection{}
	bySub := map[string][]*Detection{}
	eng, err := NewEngine(Config{Subs: subs}, MultiSink{mem, top, FuncSink(func(d *Detection) {
		private[d] = cloneDetection(d)
		bySub[d.Sub] = append(bySub[d.Sub], d)
	})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(evs); i += 64 {
		if _, err := eng.Ingest(evs[i:min(i+64, len(evs))]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()

	// The premise: the same instance reaches two subscribers as two headers
	// over the same arrays.
	shared := 0
	first := map[string]*Detection{}
	for _, d := range bySub["s0"] {
		first[detKey(d)] = d
	}
	for _, d := range bySub["s1"] {
		o := first[detKey(d)]
		if o == nil {
			t.Fatalf("s1 received an instance s0 (φ=0) did not: %s", detKey(d))
		}
		if o == d {
			t.Fatal("two subscriptions received one Detection header")
		}
		if &o.Nodes[0] == &d.Nodes[0] && &o.Edges[0] == &d.Edges[0] && &o.EdgeFlows[0] == &d.EdgeFlows[0] {
			shared++
		}
	}
	if shared == 0 || shared != len(bySub["s1"]) {
		t.Fatalf("%d of %d s1 detections share their payload with s0's", shared, len(bySub["s1"]))
	}

	mem2, top2 := NewMemorySink(4096), NewTopKSink(8)
	mem2.Restore(mem.Snapshot())
	top2.Restore(top.Snapshot())
	mem3, top3 := NewMemorySink(64), NewTopKSink(3)
	mem3.Inject(mem2.RemoveSub("s1"))
	top3.Inject(top2.RemoveSub("s1"))
	mem3.Emit(bySub["s2"][0])
	top3.Emit(bySub["s2"][0])

	checked := 0
	check := func(where string, ds []*Detection) {
		for _, d := range ds {
			want := private[d]
			if want == nil {
				t.Fatalf("%s: holds a detection the engine never emitted", where)
			}
			if !reflect.DeepEqual(d, want) {
				t.Errorf("%s: detection of %s changed after emission:\n got %+v\nwant %+v", where, d.Sub, d, want)
			}
			checked++
		}
	}
	check("emitted", append(append(append(bySub["s0"], bySub["s1"]...), bySub["s2"]...), bySub["s3"]...))
	for name, m := range map[string]*MemorySink{"mem": mem, "mem restored": mem2, "mem injected": mem3} {
		check(name, m.Recent("", 0))
	}
	for name, k := range map[string]*TopKSink{"top": top, "top restored": top2, "top injected": top3} {
		for _, s := range subs {
			check(name, k.Top(s.ID))
		}
	}
	if checked < 4*len(bySub["s3"]) || len(mem3.Recent("s1", 0)) == 0 || len(top3.Top("s1")) == 0 {
		t.Fatalf("degenerate test: %d detections checked, handoff moved %d/%d",
			checked, len(mem3.Recent("s1", 0)), len(top3.Top("s1")))
	}
}

// TestSweepAllocsPerInstance: once the engine's record slabs have grown to
// a round's size, a sweep allocates nothing per instance it records, however
// many members admit the instance — no Detection is built in the sweep. The
// per-sweep constant cancels between a sweep over half the match list and one
// over all of it.
func TestSweepAllocsPerInstance(t *testing.T) {
	tri := motif.MustPath(0, 1, 2, 0)
	g, err := temporal.NewGraph(streamEvents(t, 61))
	if err != nil {
		t.Fatal(err)
	}
	matches, err := core.CollectMatches(g, tri, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, nsubs := range []int{1, 8} {
		e, err := NewEngine(Config{DisableObs: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs := make([]*subState, nsubs)
		for i := range subs {
			subs[i] = &subState{sub: Subscription{ID: fmt.Sprint(i), Motif: tri, Delta: 5000}}
		}
		sweep := func(list []match.Match) (allocs float64, instances int) {
			run := func() {
				for _, s := range subs {
					s.emitted = math.MinInt64
				}
				e.out.reset()
				e.sweepBand(g, list, subs, 0, math.MaxInt64, 0)
			}
			run()
			return testing.AllocsPerRun(5, run), len(e.out.recs)
		}
		sweep(matches) // grows the record slabs to their largest
		a1, n1 := sweep(matches[:len(matches)/2])
		a2, n2 := sweep(matches)
		if n2-n1 < 100 || e.out.n != nsubs*n2 {
			t.Fatalf("degenerate test: %d and %d instances, %d detections", n1, n2, e.out.n)
		}
		per := (a2 - a1) / float64(n2-n1)
		t.Logf("%d members: %.2f allocations per instance", nsubs, per)
		if per > 0 {
			t.Errorf("%d members: %.2f allocations per instance (%v over %d, %v over %d), want 0",
				nsubs, per, a1, n1, a2, n2)
		}
	}
}
