package temporal

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestArenaOrdersLikeAComparisonSort: the counting-pass build lays out
// exactly the graph a full (From, To, T, F) comparison sort gives — arcs,
// series order including equal-timestamp ties broken by flow, prefix sums
// and both adjacencies — for time-ordered input (the stream snapshot's
// case) and shuffled input alike, through one arena reused across builds
// that grow, shrink and change universe.
func TestArenaOrdersLikeAComparisonSort(t *testing.T) {
	var arena GraphArena
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(12)
		evs := make([]Event, rng.Intn(300))
		for i := range evs {
			// Few timestamps and flows, so equal (From, To, T) runs with
			// different flows and fully equal events both occur.
			evs[i] = Event{
				From: NodeID(rng.Intn(nodes)),
				To:   NodeID(rng.Intn(nodes)),
				T:    int64(rng.Intn(40)) - 20,
				F:    float64(1 + rng.Intn(4)),
			}
		}
		want := slices.Clone(evs)
		sort.Slice(want, func(i, j int) bool {
			x, y := want[i], want[j]
			if x.From != y.From {
				return x.From < y.From
			}
			if x.To != y.To {
				return x.To < y.To
			}
			if x.T != y.T {
				return x.T < y.T
			}
			return x.F < y.F
		})
		ordered := slices.Clone(evs)
		slices.SortStableFunc(ordered, func(x, y Event) int { return int(x.T - y.T) })
		for name, in := range map[string][]Event{"time-ordered": ordered, "shuffled": evs} {
			before := slices.Clone(in)
			g, err := arena.Build(nodes, in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in, before) {
				t.Fatalf("seed %d %s: Build modified its input", seed, name)
			}
			if got := g.Events(); len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: events in arena order\n got %v\nwant %v", seed, name, got, want)
			}
			checkGraphInvariants(t, g, want)
		}
	}
}

// checkGraphInvariants checks g's prefix sums against left-to-right sums
// over want (the events in arena order).
func checkGraphInvariants(t *testing.T, g *Graph, want []Event) {
	t.Helper()
	pos := 0
	for a := 0; a < g.NumArcs(); a++ {
		s := g.Series(a)
		sum := 0.0
		for i := range s {
			sum += want[pos+i].F
		}
		if got := g.FlowRange(a, 0, len(s)); got != sum {
			t.Fatalf("arc %d: FlowRange %v, events sum %v", a, got, sum)
		}
		pos += len(s)
	}
}

// TestArenaBuildAllocsWhenWarm: a warmed arena rebuilds the snapshot of a
// time-ordered window without allocating.
func TestArenaBuildAllocsWhenWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	evs := randomEvents(rng, 50, 2000)
	slices.SortStableFunc(evs, func(x, y Event) int { return int(x.T - y.T) })
	var arena GraphArena
	build := func() {
		if _, err := arena.Build(50, evs); err != nil {
			t.Fatal(err)
		}
	}
	build()
	if n := testing.AllocsPerRun(10, build); n != 0 {
		t.Fatalf("warmed arena build: %v allocations, want 0", n)
	}
}
