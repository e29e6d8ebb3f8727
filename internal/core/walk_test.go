package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// walkSpec is a WalkTarget without its visitor.
type walkSpec struct {
	mo            *motif.Motif
	delta, lo, hi int64
}

func (s walkSpec) String() string {
	return fmt.Sprintf("%s δ=%d [%d,%d]", s.mo.ShapeKey(), s.delta, s.lo, s.hi)
}

// walkShapes is what the walk tests draw targets from: the Figure-3
// catalog, the one-edge motif and the two-vertex ping-pong.
func walkShapes() []*motif.Motif {
	return append(motif.Catalog(), motif.MustPath(0, 1), motif.MustPath(0, 1, 0))
}

// chainFits is the walk's pruning condition, written naively: some event
// of the first arc inside [lo, hi] starts a strictly increasing chain of
// events, one per arc, that ends within δ of it.
func chainFits(g *temporal.Graph, arcs []int, delta, lo, hi int64) bool {
anchors:
	for _, a := range g.Series(arcs[0]) {
		if a.T < lo || a.T > hi {
			continue
		}
		t := a.T
		for _, arc := range arcs[1:] {
			found := false
			for _, p := range g.Series(arc) {
				if p.T > t {
					t, found = p.T, true
					break
				}
			}
			if !found || t-a.T > delta {
				continue anchors
			}
		}
		return true
	}
	return false
}

func matchKeys(ms []match.Match) []string {
	keys := make([]string, len(ms))
	for i := range ms {
		keys[i] = fmt.Sprint(ms[i].Nodes, ms[i].Arcs)
	}
	return keys
}

// isSubsequence reports whether sub occurs in seq in order.
func isSubsequence(sub, seq []string) bool {
	i := 0
	for _, s := range seq {
		if i < len(sub) && sub[i] == s {
			i++
		}
	}
	return i == len(sub)
}

func orderedInstances(t testing.TB, g *temporal.Graph, s walkSpec, ms []match.Match) []string {
	t.Helper()
	var keys []string
	_, err := EnumerateMatchesRange(g, s.mo, ms, Params{Delta: s.delta}, s.lo, s.hi, func(in *Instance) bool {
		keys = append(keys, instanceKey(in))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// checkWalk is the walk oracle. For every spec the band-anchored walk must
// yield exactly the structural matches that pass chainFits, in structural
// order — hence a subsequence of the unrestricted walk's list (i) — and
// phase P2 over its band must find in them, instance for instance and in
// order, what it finds in all structural matches (ii). One walk over all
// specs at once must hand each of them that same sequence (iii). It
// returns the number of instances seen.
func checkWalk(t testing.TB, g *temporal.Graph, specs []walkSpec) int {
	t.Helper()
	want := make([][]string, len(specs))
	instances := 0
	for i, s := range specs {
		all := allMatches(g, s.mo)
		var kept []match.Match
		for _, m := range all {
			if s.lo <= s.hi && chainFits(g, m.Arcs, s.delta, s.lo, s.hi) {
				kept = append(kept, m)
			}
		}
		want[i] = matchKeys(kept)

		var alone MatchSlab
		walkSource(g, s.mo, s.delta, s.lo, s.hi).each(alone.Add)
		got := matchKeys(alone.Matches())
		if !slices.Equal(got, want[i]) {
			t.Fatalf("%v alone:\n got %v\nwant %v", s, got, want[i])
		}
		full, err := CollectMatches(g, s.mo, s.delta)
		if err != nil {
			t.Fatal(err)
		}
		if !isSubsequence(got, matchKeys(full)) {
			t.Fatalf("%v: band-anchored list is no subsequence of the unrestricted one", s)
		}
		gotIn, wantIn := orderedInstances(t, g, s, alone.Matches()), orderedInstances(t, g, s, all)
		if !slices.Equal(gotIn, wantIn) {
			t.Fatalf("%v: P2 over the band-anchored matches:\n got %v\nwant %v", s, gotIn, wantIn)
		}
		instances += len(wantIn)
	}

	slabs := make([]MatchSlab, len(specs))
	targets := make([]WalkTarget, len(specs))
	for i, s := range specs {
		targets[i] = WalkTarget{Motif: s.mo, Delta: s.delta, AnchorLo: s.lo, AnchorHi: s.hi, Visit: slabs[i].Add}
	}
	if err := WalkMatches(g, targets); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if got := matchKeys(slabs[i].Matches()); !slices.Equal(got, want[i]) {
			t.Fatalf("%v as target %d of %v:\n got %v\nwant %v", s, i, specs, got, want[i])
		}
	}
	return instances
}

// walkGraph is a small random graph with the features the walk's anchor
// logic is sensitive to: a hub with long series in and out, timestamps
// drawn from a range small enough to collide, and arcs of one event.
func walkGraph(rng *rand.Rand) *temporal.Graph {
	nodes := 4 + rng.Intn(4)
	tmax := 8 + rng.Intn(60)
	n := 10 + rng.Intn(70)
	evs := make([]temporal.Event, 0, n)
	for len(evs) < n {
		from, to := temporal.NodeID(rng.Intn(nodes)), temporal.NodeID(rng.Intn(nodes))
		switch rng.Intn(4) {
		case 0:
			from = 0 // hub out
		case 1:
			to = 0 // hub in
		}
		if from == to {
			continue
		}
		evs = append(evs, temporal.Event{From: from, To: to, T: int64(rng.Intn(tmax)), F: float64(1 + rng.Intn(5))})
	}
	g, err := temporal.NewGraph(evs)
	if err != nil {
		panic(err)
	}
	return g
}

// walkBand draws an anchor range: empty, one timestamp, the full int64
// range, half-open to either side, or an interval inside the graph's span.
func walkBand(rng *rand.Rand, tmax int64) (lo, hi int64) {
	a, b := rng.Int63n(tmax+1), rng.Int63n(tmax+1)
	if a > b {
		a, b = b, a
	}
	switch rng.Intn(7) {
	case 0:
		return b + 1, a // empty
	case 1:
		return a, a
	case 2:
		return math.MinInt64, math.MaxInt64
	case 3:
		return math.MinInt64, b
	case 4:
		return a, math.MaxInt64
	}
	return a, b
}

// TestWalkRangeProperty runs the walk oracle over random graphs with every
// shape alone under random (δ, band), and with random subsets of the shapes
// — duplicates of one shape under different (δ, band) included — walked as
// one trie.
func TestWalkRangeProperty(t *testing.T) {
	shapes := walkShapes()
	instances := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := walkGraph(rng)
		_, tmax := g.TimeSpan()
		spec := func(mo *motif.Motif) walkSpec {
			lo, hi := walkBand(rng, tmax)
			return walkSpec{mo: mo, delta: []int64{0, 1, 3, 10, 40, math.MaxInt64}[rng.Intn(6)], lo: lo, hi: hi}
		}
		for _, mo := range shapes {
			instances += checkWalk(t, g, []walkSpec{spec(mo)})
		}
		for trial := 0; trial < 4; trial++ {
			var specs []walkSpec
			for n := 2 + rng.Intn(6); len(specs) < n; {
				s := spec(shapes[rng.Intn(len(shapes))])
				specs = append(specs, s)
				if rng.Intn(3) == 0 {
					specs = append(specs, spec(s.mo)) // same shape, other (δ, band)
				}
			}
			instances += checkWalk(t, g, specs)
		}
	}
	if instances == 0 {
		t.Fatal("degenerate test: no graph had an instance")
	}
}

// TestWalkStops: a visitor returning false ends the walk for every target.
func TestWalkStops(t *testing.T) {
	g := randomGraph(3, 10, 200, 80)
	calls := 0
	count := func(*match.Match) bool { calls++; return calls < 3 }
	err := WalkMatches(g, []WalkTarget{
		{Motif: motif.MustPath(0, 1, 2), Delta: 40, AnchorLo: math.MinInt64, AnchorHi: math.MaxInt64, Visit: count},
		{Motif: motif.MustPath(0, 1, 2, 3), Delta: 40, AnchorLo: math.MinInt64, AnchorHi: math.MaxInt64, Visit: count},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("visitor calls = %d, want 3", calls)
	}
	if err := WalkMatches(g, []WalkTarget{{Motif: motif.MustPath(0, 1), Delta: -1}}); err == nil {
		t.Error("negative δ accepted")
	}
}

// FuzzWalkRange decodes a small event list and a target list from the
// input and runs the walk oracle on them.
func FuzzWalkRange(f *testing.F) {
	f.Add([]byte{0, 1, 3, 9, 1, 2, 5, 40, 2, 0, 9, 7, 0, 1, 4, 200, 1, 2, 8, 3}, []byte{1, 10, 0, 63, 0, 10, 4, 6})
	f.Add([]byte{0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 2, 1, 0, 1, 3, 1}, []byte{10, 2, 1, 1, 11, 63, 3, 0, 10, 0, 0, 63})
	f.Add([]byte{3, 4, 60, 255, 4, 3, 61, 254, 3, 4, 62, 1, 4, 0, 63, 2}, []byte{2, 1, 60, 3, 6, 200, 255, 0, 2, 5, 61, 255})
	shapes := walkShapes()
	f.Fuzz(func(t *testing.T, raw, sel []byte) {
		if len(raw) > 4*48 {
			raw = raw[:4*48]
		}
		var evs []temporal.Event
		for ; len(raw) >= 4; raw = raw[4:] {
			evs = append(evs, temporal.Event{
				From: temporal.NodeID(raw[0] % 6),
				To:   temporal.NodeID(raw[1] % 6),
				T:    int64(raw[2] % 64),
				F:    1 + float64(raw[3]%8),
			})
		}
		if len(evs) == 0 {
			return
		}
		g, err := temporal.NewGraph(evs)
		if err != nil {
			return
		}
		// Four bytes per target: shape, δ, band start, band width — with
		// width 255 the full int64 range, and a start past 63 an empty one.
		if len(sel) > 4*6 {
			sel = sel[:4*6]
		}
		var specs []walkSpec
		for ; len(sel) >= 4; sel = sel[4:] {
			s := walkSpec{mo: shapes[int(sel[0])%len(shapes)], delta: int64(sel[1] % 80), lo: int64(sel[2] % 80)}
			switch {
			case sel[3] == 255:
				s.lo, s.hi = math.MinInt64, math.MaxInt64
			case s.lo > 63:
				s.hi = s.lo - 1
			default:
				s.hi = s.lo + int64(sel[3]%32)
			}
			specs = append(specs, s)
		}
		checkWalk(t, g, specs)
	})
}

// TestWalkSourceSubsetOfMatches verifies the two defining properties of
// the temporally pruned P1 walk: (a) it emits a subset of the pure
// structural matches, and (b) every match it drops admits no instance
// under the given δ (so enumeration results are unchanged).
func TestWalkSourceSubsetOfMatches(t *testing.T) {
	motifs := []*motif.Motif{
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3),
		motif.MustPath(0, 1, 2, 3, 1),
	}
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed+500, 6, 60, 50)
		for _, mo := range motifs {
			for _, delta := range []int64{5, 20, 100} {
				all := map[string]bool{}
				match.Stream(g, mo, func(m *match.Match) bool {
					all[fmt.Sprint(m.Arcs)] = true
					return true
				})
				var walkKeys []string
				fullWalk(g, mo, delta).each(func(m *match.Match) bool {
					walkKeys = append(walkKeys, fmt.Sprint(m.Arcs))
					return true
				})
				seen := map[string]bool{}
				for _, k := range walkKeys {
					if !all[k] {
						t.Fatalf("seed=%d motif=%v δ=%d: walk emitted non-structural match %s", seed, mo, delta, k)
					}
					if seen[k] {
						t.Fatalf("seed=%d motif=%v δ=%d: walk emitted duplicate %s", seed, mo, delta, k)
					}
					seen[k] = true
				}
				// Dropped matches must admit no instance: enumerate them
				// via the instrumented slice mode and expect zero.
				var dropped []match.Match
				match.Stream(g, mo, func(m *match.Match) bool {
					if !seen[fmt.Sprint(m.Arcs)] {
						dropped = append(dropped, m.Clone())
					}
					return true
				})
				st, err := EnumerateMatches(g, mo, dropped, Params{Delta: delta, Phi: 0}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.Instances != 0 {
					t.Errorf("seed=%d motif=%v δ=%d: %d instances found in walk-dropped matches",
						seed, mo, delta, st.Instances)
				}
			}
		}
	}
}

// TestWalkAnchorRestoration exercises the sibling-restore logic of the
// anchored-chain state: graphs where one child branch must advance the
// anchor far while a later sibling still matches from an early anchor.
func TestWalkAnchorRestoration(t *testing.T) {
	// Node 0 fans out to 1; from 1, branch A (node 2) only matches very
	// late events, branch B (node 3) matches early ones. Exploring A first
	// advances the anchor; B must still be found.
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 1},
		{From: 0, To: 1, T: 1000, F: 1},
		{From: 1, To: 2, T: 1005, F: 1}, // only reachable from the late anchor
		{From: 1, To: 3, T: 12, F: 1},   // only reachable from the early anchor
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := motif.MustPath(0, 1, 2)
	var got []string
	fullWalk(g, mo, 20).each(func(m *match.Match) bool {
		got = append(got, fmt.Sprint(m.Nodes))
		return true
	})
	sort.Strings(got)
	want := []string{"[0 1 2]", "[0 1 3]"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("walk matches = %v, want %v", got, want)
	}
	// With a δ too small for the early chain only the late branch remains
	// temporally feasible... both chains span 2-5 units, so both survive a
	// tiny δ; with δ=1 neither does.
	got = nil
	fullWalk(g, mo, 1).each(func(m *match.Match) bool {
		got = append(got, fmt.Sprint(m.Nodes))
		return true
	})
	if len(got) != 0 {
		t.Errorf("δ=1 walk matches = %v, want none", got)
	}
}

// TestWalkCounts double-checks end-to-end counts equal the slice-mode
// enumeration over all pure structural matches.
func TestWalkCounts(t *testing.T) {
	for seed := int64(30); seed < 40; seed++ {
		g := randomGraph(seed, 7, 80, 60)
		for _, mo := range []*motif.Motif{motif.MustPath(0, 1, 2), motif.MustPath(0, 1, 2, 0)} {
			p := Params{Delta: 15, Phi: 2}
			streamed, _, err := Count(g, mo, p)
			if err != nil {
				t.Fatal(err)
			}
			all := allMatches(g, mo)
			st, err := EnumerateMatches(g, mo, all, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if streamed != st.Instances {
				t.Errorf("seed=%d motif=%v: walk count %d != full-match count %d",
					seed, mo, streamed, st.Instances)
			}
		}
	}
}

// TestWalkEarlyStop ensures visitor aborts propagate through the walk
// promptly.
func TestWalkEarlyStop(t *testing.T) {
	g := randomGraph(3, 10, 200, 80)
	mo := motif.MustPath(0, 1, 2)
	calls := 0
	_, err := Enumerate(g, mo, Params{Delta: 40, Phi: 0}, func(in *Instance) bool {
		calls++
		return calls < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("visitor calls = %d, want 2", calls)
	}
}

// TestWalkPropertyNeverLoses is a randomized property test: for random
// deltas, counting through the walk must match oracle-counted
// maximal instances.
func TestWalkPropertyNeverLoses(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng.Int63(), 5, 35, 30)
		mo := motif.MustPath(0, 1, 2, 0)
		delta := int64(1 + rng.Intn(40))
		phi := float64(rng.Intn(6))
		want := len(oracleEnumerate(g, mo, delta, phi))
		got, _, err := Count(g, mo, Params{Delta: delta, Phi: phi})
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(want) {
			t.Errorf("trial %d δ=%d φ=%v: walk count %d != oracle %d", trial, delta, phi, got, want)
		}
	}
}
