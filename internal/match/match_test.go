package match

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// paperGraph is the bitcoin user graph of the paper's Figure 2 (u1..u4 as
// nodes 0..3).
func paperGraph(t testing.TB) *temporal.Graph {
	t.Helper()
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 13, F: 5},
		{From: 0, To: 1, T: 15, F: 7},
		{From: 2, To: 0, T: 10, F: 10},
		{From: 3, To: 0, T: 1, F: 2},
		{From: 3, To: 0, T: 3, F: 5},
		{From: 3, To: 2, T: 11, F: 10},
		{From: 1, To: 2, T: 18, F: 20},
		{From: 2, To: 3, T: 19, F: 5},
		{From: 2, To: 3, T: 21, F: 4},
		{From: 1, To: 3, T: 23, F: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPaperFigure6 checks the paper's worked P1 example: the time-series
// graph of Figure 5(b) has exactly six structural matches of M(3,3)
// (Figure 6), two per rotation of the two directed triangles u1u2u3 and
// u2u3u4... the paper shows six matches total.
func TestPaperFigure6(t *testing.T) {
	g := paperGraph(t)
	tri := motif.MustPath(0, 1, 2, 0)
	ms := Collect(g, tri, 0)
	if len(ms) != 6 {
		for _, m := range ms {
			t.Logf("match: %v", m.Nodes)
		}
		t.Fatalf("M(3,3) matches = %d, want 6", len(ms))
	}
	// The directed triangles are u1u2u3 (0,1,2) and u1u2u4 (0,1,3); each
	// appears once per rotation of its spanning path.
	want := map[string]bool{}
	for _, rot := range [][]temporal.NodeID{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 1, 3}, {1, 3, 0}, {3, 0, 1}} {
		want[fmt.Sprint(rot)] = true
	}
	for _, m := range ms {
		if !want[fmt.Sprint(m.Nodes)] {
			t.Errorf("unexpected match %v", m.Nodes)
		}
		delete(want, fmt.Sprint(m.Nodes))
	}
	for k := range want {
		t.Errorf("missing match %v", k)
	}
}

func TestChainMatchesPaperGraph(t *testing.T) {
	g := paperGraph(t)
	// M(3,2): wedges u→v→w with distinct nodes.
	n := Count(g, motif.MustPath(0, 1, 2))
	// Enumerate by hand: arcs are 0→1,1→2,1→3,2→0,2→3,3→0,3→2.
	// 0→1→2, 0→1→3, 1→2→0, 1→2→3, 1→3→0, 1→3→2, 2→0→1, 2→3→0,
	// 3→0→1, 3→2→0, 2→... (2→3→0 yes), (3→2→0 yes)... plus 1→2→... done.
	want := int64(10)
	if n != want {
		Stream(g, motif.MustPath(0, 1, 2), func(m *Match) bool {
			t.Logf("wedge %v", m.Nodes)
			return true
		})
		t.Errorf("wedge count = %d, want %d", n, want)
	}
}

func TestArcsMatchSeries(t *testing.T) {
	g := paperGraph(t)
	Stream(g, motif.MustPath(0, 1, 2, 0), func(m *Match) bool {
		for e := 0; e < 3; e++ {
			src, dst := m.Nodes[e], m.Nodes[(e+1)%3]
			if g.ArcSource(m.Arcs[e]) != src || g.ArcTarget(m.Arcs[e]) != dst {
				t.Errorf("edge %d arc endpoints (%d,%d) for match %v",
					e, g.ArcSource(m.Arcs[e]), g.ArcTarget(m.Arcs[e]), m.Nodes)
			}
			if len(g.Series(m.Arcs[e])) == 0 {
				t.Error("empty series on matched arc")
			}
		}
		return true
	})
}

func TestInjectivity(t *testing.T) {
	// Graph with a tempting non-injective walk: 0→1→0→... must not bind
	// motif vertex 2 to node 0 again for chain motifs.
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 1, F: 1},
		{From: 1, To: 0, T: 2, F: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := Count(g, motif.MustPath(0, 1, 2)); n != 0 {
		t.Errorf("chain3 matches = %d, want 0 (injectivity)", n)
	}
	// Ping-pong motif 0→1→0 revisits legitimately; one match per rotation.
	if n := Count(g, motif.MustPath(0, 1, 0)); n != 2 {
		t.Errorf("ping-pong matches = %d, want 2", n)
	}
}

func TestSelfLoopNeverMatched(t *testing.T) {
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 0, T: 1, F: 1},
		{From: 0, To: 1, T: 2, F: 1},
		{From: 1, To: 2, T: 3, F: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	Stream(g, motif.MustPath(0, 1, 2), func(m *Match) bool {
		for _, a := range m.Arcs {
			if g.ArcSource(a) == g.ArcTarget(a) {
				t.Error("self-loop arc matched")
			}
		}
		return true
	})
}

func TestEarlyStop(t *testing.T) {
	g := paperGraph(t)
	calls := 0
	n := Stream(g, motif.MustPath(0, 1), func(m *Match) bool {
		calls++
		return calls < 3
	})
	if calls != 3 || n != 3 {
		t.Errorf("early stop: calls=%d n=%d, want 3", calls, n)
	}
}

func TestCollectLimit(t *testing.T) {
	g := paperGraph(t)
	ms := Collect(g, motif.MustPath(0, 1), 2)
	if len(ms) != 2 {
		t.Errorf("Collect limit: %d", len(ms))
	}
	all := Collect(g, motif.MustPath(0, 1), 0)
	if int64(len(all)) != Count(g, motif.MustPath(0, 1)) {
		t.Error("Collect(0) != Count")
	}
}

func TestVisitorMatchReused(t *testing.T) {
	g := paperGraph(t)
	var first *Match
	var firstNodes []temporal.NodeID
	Stream(g, motif.MustPath(0, 1, 2), func(m *Match) bool {
		if first == nil {
			first = m
			firstNodes = append([]temporal.NodeID(nil), m.Nodes...)
			return true
		}
		if m != first {
			t.Error("match struct not reused (doc contract changed?)")
		}
		return false
	})
	// After mutation, a clone must have preserved the original content.
	clone := first.Clone()
	_ = clone
	if fmt.Sprint(firstNodes) == fmt.Sprint(first.Nodes) {
		t.Log("second match equals first; harmless")
	}
}

// bruteCount counts matches by trying all node tuples (reference oracle).
func bruteCount(g *temporal.Graph, mo *motif.Motif) int64 {
	path := mo.Path()
	numV := mo.NumVertices()
	n := g.NumNodes()
	var rec func(v int, bind []temporal.NodeID) int64
	rec = func(v int, bind []temporal.NodeID) int64 {
		if v == numV {
			// check all path arcs exist
			for i := 1; i < len(path); i++ {
				if _, ok := g.FindArc(bind[path[i-1]], bind[path[i]]); !ok {
					return 0
				}
			}
			return 1
		}
		var total int64
		for u := 0; u < n; u++ {
			used := false
			for w := 0; w < v; w++ {
				if bind[w] == temporal.NodeID(u) {
					used = true
					break
				}
			}
			if used {
				continue
			}
			bind[v] = temporal.NodeID(u)
			total += rec(v+1, bind)
		}
		return total
	}
	return rec(0, make([]temporal.NodeID, numV))
}

func TestDifferentialVsBruteForce(t *testing.T) {
	motifs := []*motif.Motif{
		motif.MustPath(0, 1),
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 0),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3),
		motif.MustPath(0, 1, 2, 3, 1),
		motif.MustPath(0, 1, 2, 0, 3),
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 3 + rng.Intn(5)
		evs := make([]temporal.Event, 0, 24)
		for i := 0; i < 24; i++ {
			evs = append(evs, temporal.Event{
				From: temporal.NodeID(rng.Intn(nodes)),
				To:   temporal.NodeID(rng.Intn(nodes)),
				T:    int64(i),
				F:    1,
			})
		}
		g, err := temporal.NewGraph(evs)
		if err != nil {
			t.Fatal(err)
		}
		for _, mo := range motifs {
			got := Count(g, mo)
			want := bruteCount(g, mo)
			if got != want {
				t.Errorf("seed %d motif %v: count = %d, want %d", seed, mo, got, want)
			}
		}
	}
}

func TestNoDuplicateMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]temporal.Event, 30)
		for i := range evs {
			evs[i] = temporal.Event{
				From: temporal.NodeID(rng.Intn(6)),
				To:   temporal.NodeID(rng.Intn(6)),
				T:    int64(i),
				F:    1,
			}
		}
		g, err := temporal.NewGraph(evs)
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		dup := false
		Stream(g, motif.MustPath(0, 1, 2, 0), func(m *Match) bool {
			k := fmt.Sprint(m.Nodes)
			if seen[k] {
				dup = true
				return false
			}
			seen[k] = true
			return true
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
