package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// figure2Graph is the paper's running example (Figure 2), u1..u4 = 0..3.
func figure2Graph(t testing.TB) *temporal.Graph {
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

// figure7Graph holds the series of the paper's Figure 7 structural match on
// a 3-cycle 0→1→2→0: e1 = (0,1), e2 = (1,2), e3 = (2,0).
func figure7Graph(t testing.TB) *temporal.Graph {
	t.Helper()
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 5},
		{From: 0, To: 1, T: 13, F: 2},
		{From: 0, To: 1, T: 15, F: 3},
		{From: 0, To: 1, T: 18, F: 7},
		{From: 1, To: 2, T: 9, F: 4},
		{From: 1, To: 2, T: 11, F: 3},
		{From: 1, To: 2, T: 16, F: 3},
		{From: 2, To: 0, T: 14, F: 4},
		{From: 2, To: 0, T: 19, F: 6},
		{From: 2, To: 0, T: 24, F: 3},
		{From: 2, To: 0, T: 25, F: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// figure7Match extracts the single structural match with binding (0,1,2).
func figure7Match(t testing.TB, g *temporal.Graph) []match.Match {
	t.Helper()
	for _, mt := range allMatches(g, motif.MustPath(0, 1, 2, 0)) {
		if mt.Nodes[0] == 0 && mt.Nodes[1] == 1 && mt.Nodes[2] == 2 {
			return []match.Match{mt}
		}
	}
	t.Fatal("figure-7 match not found")
	return nil
}

// TestPaperFigure7Enumeration reproduces the paper's Algorithm-1 walkthrough
// (Figure 7): with δ=10, φ=0 the match has exactly four maximal instances,
// including the two spelled out in the text for prefix Tp=[10,10], and the
// window at anchor t=13 is skipped.
func TestPaperFigure7Enumeration(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	mts := figure7Match(t, g)

	var got []*Instance
	stats, err := EnumerateMatches(g, mo, mts, Params{Delta: 10, Phi: 0}, func(in *Instance) bool {
		got = append(got, in)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Span{
		{{0, 1}, {1, 2}, {0, 2}}, // [e1←{(10,5)}, e2←{(11,3)}, e3←{(14,4),(19,6)}]  (paper)
		{{0, 1}, {1, 3}, {1, 2}}, // [e1←{(10,5)}, e2←{(11,3),(16,3)}, e3←{(19,6)}]  (paper)
		{{0, 3}, {2, 3}, {1, 2}}, // [e1←{(10,5),(13,2),(15,3)}, e2←{(16,3)}, e3←{(19,6)}]
		{{2, 3}, {2, 3}, {1, 4}}, // [e1←{(15,3)}, e2←{(16,3)}, e3←{(19,6),(24,3),(25,2)}]
	}
	if len(got) != len(want) {
		for _, in := range got {
			t.Logf("got %v spans %v flows %v", in, in.Spans, in.EdgeFlows)
		}
		t.Fatalf("instances = %d, want %d", len(got), len(want))
	}
	for i, in := range got {
		if !reflect.DeepEqual(in.Spans, want[i]) {
			t.Errorf("instance %d spans = %v, want %v", i, in.Spans, want[i])
		}
	}
	wantFlows := []float64{3, 5, 3, 3}
	for i, in := range got {
		if math.Abs(in.Flow-wantFlows[i]) > 1e-12 {
			t.Errorf("instance %d flow = %v, want %v", i, in.Flow, wantFlows[i])
		}
	}
	// The paper explicitly skips window position [13,23].
	if stats.WindowsSkipped < 1 {
		t.Errorf("WindowsSkipped = %d, want >= 1", stats.WindowsSkipped)
	}
	// Every instance is valid and maximal.
	for i, in := range got {
		if err := Validate(g, mo, 10, 0, in); err != nil {
			t.Errorf("instance %d invalid: %v", i, err)
		}
		if ok, why := IsMaximal(g, mo, 10, in); !ok {
			t.Errorf("instance %d not maximal: %s", i, why)
		}
	}
}

// TestPaperFigure7Phi reproduces the φ pruning discussion: with φ=5 only the
// instance [e1←{(10,5)}, e2←{(11,3),(16,3)}, e3←{(19,6)}] survives.
func TestPaperFigure7Phi(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	mts := figure7Match(t, g)
	var got []*Instance
	stats, err := EnumerateMatches(g, mo, mts, Params{Delta: 10, Phi: 5}, func(in *Instance) bool {
		got = append(got, in)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("instances = %d, want 1", len(got))
	}
	wantSpans := []Span{{0, 1}, {1, 3}, {1, 2}}
	if !reflect.DeepEqual(got[0].Spans, wantSpans) {
		t.Errorf("spans = %v, want %v", got[0].Spans, wantSpans)
	}
	if got[0].Flow != 5 {
		t.Errorf("flow = %v, want 5", got[0].Flow)
	}
	if stats.PhiPruned == 0 && stats.AvailPruned == 0 {
		t.Error("expected some φ pruning")
	}
}

// TestPaperFigure4a reproduces the Figure 4(a) example: in the Figure-2
// graph with δ=10 and φ=7, M(3,3) has exactly one maximal instance:
// [e1←{(10,10)}, e2←{(13,5),(15,7)}, e3←{(18,20)}] on binding (u3,u1,u2).
func TestPaperFigure4a(t *testing.T) {
	g := figure2Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	ins, err := Collect(g, mo, Params{Delta: 10, Phi: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 {
		for _, in := range ins {
			t.Logf("got %v", in)
		}
		t.Fatalf("instances = %d, want 1", len(ins))
	}
	in := ins[0]
	if !reflect.DeepEqual(in.Nodes, []temporal.NodeID{2, 0, 1}) {
		t.Errorf("nodes = %v, want [2 0 1]", in.Nodes)
	}
	if !reflect.DeepEqual(in.EdgeFlows, []float64{10, 12, 20}) {
		t.Errorf("edge flows = %v, want [10 12 20]", in.EdgeFlows)
	}
	if in.Flow != 10 || in.Start != 10 || in.End != 18 {
		t.Errorf("flow/span = %v/[%d,%d], want 10/[10,18]", in.Flow, in.Start, in.End)
	}
	// Figure 4(b) — the same instance minus (13,5) — must not appear; it is
	// non-maximal. With only one instance emitted this holds by count; also
	// verify the validator agrees.
	nonMax := in.Clone()
	nonMax.Spans[1].Start++ // drop (13,5)
	nonMax.EdgeFlows[1] = 7
	nonMax.Flow = 7
	nonMax.Start = 10
	if err := Validate(g, mo, 10, 7, nonMax); err != nil {
		t.Fatalf("figure 4(b) instance should be valid (just not maximal): %v", err)
	}
	if ok, _ := IsMaximal(g, mo, 10, nonMax); ok {
		t.Error("figure 4(b) instance wrongly judged maximal")
	}
}

// TestPaperTable2DP reproduces the DP walkthrough: top-1 flow is 5,
// attained by [e1←{(10,5)}, e2←{(11,3),(16,3)}, e3←{(19,6)}].
func TestPaperTable2DP(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	mts := figure7Match(t, g)

	flow, _, err := topOneDP(g, mo, sliceSource(mts), 10, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 5 {
		t.Errorf("DP top-1 flow = %v, want 5 (paper Table 2)", flow)
	}
	fast, _, err := topOneDP(g, mo, sliceSource(mts), 10, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast != 5 {
		t.Errorf("fast DP top-1 flow = %v, want 5", fast)
	}
}

func TestTopOneDPInstanceBacktracking(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	flow, in, err := TopOneDPInstance(g, mo, 10)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 5 {
		t.Fatalf("flow = %v, want 5", flow)
	}
	if in == nil {
		t.Fatal("nil instance")
	}
	if in.Flow != 5 {
		t.Errorf("instance flow = %v, want 5", in.Flow)
	}
	if err := Validate(g, mo, 10, 0, in); err != nil {
		t.Errorf("DP instance invalid: %v", err)
	}
}

func TestTopKOrderingAndThreshold(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)

	all, err := Collect(g, mo, Params{Delta: 10, Phi: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]float64, len(all))
	for i, in := range all {
		flows[i] = in.Flow
	}
	for k := 1; k <= len(all)+2; k++ {
		got, _, err := TopK(g, mo, 10, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantN := k
		if wantN > len(all) {
			wantN = len(all)
		}
		if len(got) != wantN {
			t.Fatalf("TopK(%d) returned %d", k, len(got))
		}
		// Flows must be the k largest, descending.
		sorted := append([]float64(nil), flows...)
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		for i, in := range got {
			if math.Abs(in.Flow-sorted[i]) > 1e-12 {
				t.Errorf("TopK(%d)[%d].Flow = %v, want %v", k, i, in.Flow, sorted[i])
			}
		}
	}
	if _, _, err := TopK(g, mo, 10, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestTopOneMatchesEnumerationMax(t *testing.T) {
	g := figure2Graph(t)
	for _, mo := range []*motif.Motif{
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3),
	} {
		all, err := Collect(g, mo, Params{Delta: 12, Phi: 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantMax := 0.0
		for _, in := range all {
			if in.Flow > wantMax {
				wantMax = in.Flow
			}
		}
		top, _, err := TopOne(g, mo, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotMax := 0.0
		if top != nil {
			gotMax = top.Flow
		}
		if math.Abs(gotMax-wantMax) > 1e-12 {
			t.Errorf("%v: TopOne = %v, enumeration max = %v", mo, gotMax, wantMax)
		}
		dp, _, err := TopOneDP(g, mo, 12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp-wantMax) > 1e-12 {
			t.Errorf("%v: DP = %v, want %v", mo, dp, wantMax)
		}
		dpFast, _, err := TopOneDPFast(g, mo, 12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dpFast-dp) > 1e-12 {
			t.Errorf("%v: DP fast = %v, naive = %v", mo, dpFast, dp)
		}
	}
}

func TestSingleEdgeMotif(t *testing.T) {
	// M(2,1): one motif edge; maximal instances are the maximal-window
	// suffix/prefix series chunks.
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 0, F: 1},
		{From: 0, To: 1, T: 5, F: 2},
		{From: 0, To: 1, T: 100, F: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := motif.MustPath(0, 1)
	ins, err := Collect(g, mo, Params{Delta: 10, Phi: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: anchor 0 → {0,5}; anchor 5 → {5} skipped (5 <= 0+10);
	// anchor 100 → {100}.
	if len(ins) != 2 {
		for _, in := range ins {
			t.Logf("%v spans %v", in, in.Spans)
		}
		t.Fatalf("instances = %d, want 2", len(ins))
	}
	if ins[0].EdgeFlows[0] != 3 || ins[1].EdgeFlows[0] != 4 {
		t.Errorf("flows = %v, %v; want 3, 4", ins[0].EdgeFlows[0], ins[1].EdgeFlows[0])
	}
	for _, in := range ins {
		if ok, why := IsMaximal(g, mo, 10, in); !ok {
			t.Errorf("not maximal: %s", why)
		}
	}
}

func TestDeltaZero(t *testing.T) {
	// δ=0: all events of an instance share one timestamp, but strict
	// inter-edge ordering then forbids m >= 2 instances entirely.
	g := figure2Graph(t)
	ins, err := Collect(g, motif.MustPath(0, 1, 2), Params{Delta: 0, Phi: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 0 {
		t.Errorf("δ=0 chain instances = %d, want 0", len(ins))
	}
	// Single-edge motifs still match individual events.
	ins1, err := Collect(g, motif.MustPath(0, 1), Params{Delta: 0, Phi: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins1) != g.NumEvents() {
		t.Errorf("δ=0 single-edge instances = %d, want %d", len(ins1), g.NumEvents())
	}
}

func TestParamValidation(t *testing.T) {
	g := figure2Graph(t)
	mo := motif.MustPath(0, 1, 2)
	if _, err := Enumerate(g, mo, Params{Delta: -1}, nil); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := Enumerate(g, mo, Params{Delta: 1, Phi: -0.5}, nil); err == nil {
		t.Error("negative phi accepted")
	}
}

func TestEarlyStopVisitor(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	n := 0
	_, err := Enumerate(g, mo, Params{Delta: 10, Phi: 0}, func(in *Instance) bool {
		n++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("visitor called %d times after stop", n)
	}
}

func TestCountMatchesCollect(t *testing.T) {
	g := figure2Graph(t)
	for _, mo := range []*motif.Motif{motif.MustPath(0, 1, 2), motif.MustPath(0, 1, 2, 0)} {
		n, _, err := Count(g, mo, Params{Delta: 10, Phi: 0})
		if err != nil {
			t.Fatal(err)
		}
		ins, err := Collect(g, mo, Params{Delta: 10, Phi: 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(ins)) {
			t.Errorf("%v: Count=%d, Collect=%d", mo, n, len(ins))
		}
	}
}

func TestAblationAvailPruneSameResults(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	for _, phi := range []float64{0, 2, 5, 8} {
		a, err := Collect(g, mo, Params{Delta: 10, Phi: phi}, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Collect(g, mo, Params{Delta: 10, Phi: phi, DisableAvailPrune: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := keySetsEqual(instanceKeySet(a), instanceKeySet(b)); !ok {
			t.Errorf("φ=%v: pruning changed results: %s", phi, why)
		}
	}
}

func TestParallelEqualsSerial(t *testing.T) {
	g := randomGraph(99, 14, 160, 60)
	for _, mo := range []*motif.Motif{
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
	} {
		for _, phi := range []float64{0, 4} {
			p := Params{Delta: 15, Phi: phi}
			serial, _, err := Count(g, mo, p)
			if err != nil {
				t.Fatal(err)
			}
			p.Workers = 4
			par, _, err := Count(g, mo, p)
			if err != nil {
				t.Fatal(err)
			}
			if serial != par {
				t.Errorf("%v φ=%v: serial=%d parallel=%d", mo, phi, serial, par)
			}
		}
	}
}

func TestParallelTopKEqualsSerial(t *testing.T) {
	g := randomGraph(3, 12, 150, 50)
	mo := motif.MustPath(0, 1, 2)
	ser, _, err := TopK(g, mo, 20, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := TopK(g, mo, 20, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ser) != len(par) {
		t.Fatalf("lengths: %d vs %d", len(ser), len(par))
	}
	for i := range ser {
		if math.Abs(ser[i].Flow-par[i].Flow) > 1e-12 {
			t.Errorf("flow %d: %v vs %v", i, ser[i].Flow, par[i].Flow)
		}
	}
}

// randomGraph builds a deterministic random multigraph for differential
// tests: timestamps are unique, flows are small integers.
func randomGraph(seed int64, nodes, events, tmax int) *temporal.Graph {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]temporal.Event, 0, events)
	perm := rng.Perm(tmax * 4)
	for i := 0; i < events; i++ {
		evs = append(evs, temporal.Event{
			From: temporal.NodeID(rng.Intn(nodes)),
			To:   temporal.NodeID(rng.Intn(nodes)),
			T:    int64(perm[i%len(perm)]),
			F:    float64(1 + rng.Intn(9)),
		})
	}
	g, err := temporal.NewGraph(evs)
	if err != nil {
		panic(err)
	}
	return g
}

// TestDifferentialVsOracle is the cornerstone correctness test: across many
// random graphs, motifs and thresholds, the optimized enumeration must
// produce exactly the oracle's maximal-instance set.
func TestDifferentialVsOracle(t *testing.T) {
	motifs := []*motif.Motif{
		motif.MustPath(0, 1),
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 0),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3),
		motif.MustPath(0, 1, 2, 3, 1),
	}
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(seed, 5, 40, 30)
		for _, mo := range motifs {
			for _, delta := range []int64{5, 12, 40} {
				for _, phi := range []float64{0, 3, 7} {
					want := oracleEnumerate(g, mo, delta, phi)
					got, err := Collect(g, mo, Params{Delta: delta, Phi: phi}, 0)
					if err != nil {
						t.Fatal(err)
					}
					if ok, why := keySetsEqual(instanceKeySet(got), instanceKeySet(want)); !ok {
						t.Errorf("seed=%d motif=%v δ=%d φ=%v: %s", seed, mo, delta, phi, why)
					}
					for _, in := range got {
						if err := Validate(g, mo, delta, phi, in); err != nil {
							t.Errorf("seed=%d motif=%v: invalid instance: %v", seed, mo, err)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialWithTies repeats the oracle comparison on graphs with many
// duplicate timestamps (facebook-style 30-second buckets).
func TestDifferentialWithTies(t *testing.T) {
	motifs := []*motif.Motif{
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
	}
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]temporal.Event, 50)
		for i := range evs {
			evs[i] = temporal.Event{
				From: temporal.NodeID(rng.Intn(5)),
				To:   temporal.NodeID(rng.Intn(5)),
				T:    int64(rng.Intn(8)) * 30, // heavy ties
				F:    float64(1 + rng.Intn(5)),
			}
		}
		g, err := temporal.NewGraph(evs)
		if err != nil {
			t.Fatal(err)
		}
		for _, mo := range motifs {
			for _, delta := range []int64{30, 90} {
				for _, phi := range []float64{0, 4} {
					want := oracleEnumerate(g, mo, delta, phi)
					got, err := Collect(g, mo, Params{Delta: delta, Phi: phi}, 0)
					if err != nil {
						t.Fatal(err)
					}
					if ok, why := keySetsEqual(instanceKeySet(got), instanceKeySet(want)); !ok {
						t.Errorf("seed=%d motif=%v δ=%d φ=%v: %s", seed, mo, delta, phi, why)
					}
				}
			}
		}
	}
}

// TestDPMatchesOracleMax cross-checks both DP variants against the oracle's
// maximum instance flow on random graphs.
func TestDPMatchesOracleMax(t *testing.T) {
	motifs := []*motif.Motif{
		motif.MustPath(0, 1),
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
	}
	for seed := int64(50); seed < 70; seed++ {
		g := randomGraph(seed, 5, 35, 25)
		for _, mo := range motifs {
			for _, delta := range []int64{6, 15} {
				want := 0.0
				for _, in := range oracleEnumerate(g, mo, delta, 0) {
					if in.Flow > want {
						want = in.Flow
					}
				}
				dp, dpSt, err := TopOneDP(g, mo, delta)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(dp-want) > 1e-9 {
					t.Errorf("seed=%d motif=%v δ=%d: DP=%v oracle=%v", seed, mo, delta, dp, want)
				}
				fast, fastSt, err := TopOneDPFast(g, mo, delta)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(fast-dp) > 1e-9 {
					t.Errorf("seed=%d motif=%v δ=%d: fast=%v naive=%v", seed, mo, delta, fast, dp)
				}
				_, st, err := Count(g, mo, Params{Delta: delta, DisableAvailPrune: true})
				if err != nil {
					t.Fatal(err)
				}
				if w := windowCounts(st); windowCounts(dpSt) != w || windowCounts(fastSt) != w {
					t.Errorf("seed=%d motif=%v δ=%d: (matches, anchors, skipped, processed) DP=%v fast=%v Count=%v",
						seed, mo, delta, windowCounts(dpSt), windowCounts(fastSt), w)
				}
				flow, in, err := TopOneDPInstance(g, mo, delta)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(flow-want) > 1e-9 {
					t.Errorf("seed=%d motif=%v δ=%d: instance flow=%v want %v", seed, mo, delta, flow, want)
				}
				if in != nil {
					if err := Validate(g, mo, delta, 0, in); err != nil {
						t.Errorf("seed=%d: DP instance invalid: %v", seed, err)
					}
					if math.Abs(in.Flow-want) > 1e-9 {
						t.Errorf("seed=%d: DP instance flow %v != max %v", seed, in.Flow, want)
					}
				} else if want > 0 {
					t.Errorf("seed=%d: nil instance despite max %v", seed, want)
				}
			}
		}
	}
}

// windowCounts is what the window scan decides for a search: the matches
// it ran on, the anchors it examined, the windows its skip rule dropped and
// the windows it handed to the algorithm.
func windowCounts(st EnumStats) [4]int64 {
	return [4]int64{st.Matches, st.Anchors, st.WindowsSkipped, st.WindowsProcessed}
}

// FuzzDPEqualsEnumeration decodes a small event list — duplicate
// timestamps allowed, offset by a base that may sit at either end of the
// int64 timeline — and checks that both DP variants find the maximum flow
// over the enumerated instances at φ=0, having seen the same windows as
// the enumeration.
func FuzzDPEqualsEnumeration(f *testing.F) {
	for seed := int64(50); seed < 70; seed++ {
		var raw []byte
		for _, e := range randomGraph(seed, 5, 35, 25).Events() {
			raw = append(raw, byte(e.From), byte(e.To), byte(e.T), byte(e.F)-1)
		}
		f.Add(raw, int64(0), uint8(seed), []uint8{6, 15}[seed%2])
	}
	for _, base := range []int64{1000, math.MaxInt64 - 8, math.MinInt64} {
		f.Add([]byte{0, 1, 0, 1, 1, 2, 2, 2, 2, 0, 4, 3}, base, uint8(2), uint8(10))
	}
	shapes := []*motif.Motif{
		motif.MustPath(0, 1),
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3, 1),
	}
	f.Fuzz(func(t *testing.T, raw []byte, base int64, shape, delta uint8) {
		if len(raw) > 4*48 {
			raw = raw[:4*48]
		}
		var evs []temporal.Event
		for ; len(raw) >= 4; raw = raw[4:] {
			evs = append(evs, temporal.Event{
				From: temporal.NodeID(raw[0] % 5),
				To:   temporal.NodeID(raw[1] % 5),
				T:    temporal.SatAdd(base, int64(raw[2])),
				F:    float64(1 + raw[3]%16),
			})
		}
		if len(evs) == 0 {
			return
		}
		g, err := temporal.NewGraph(evs)
		if err != nil {
			return
		}
		mo := shapes[int(shape)%len(shapes)]
		d := int64(delta % 64)
		ins, err := Collect(g, mo, Params{Delta: d}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, in := range ins {
			want = max(want, in.Flow)
		}
		_, st, err := Count(g, mo, Params{Delta: d, DisableAvailPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, dp := range []func(*temporal.Graph, *motif.Motif, int64) (float64, EnumStats, error){TopOneDP, TopOneDPFast} {
			flow, dpSt, err := dp(g, mo, d)
			if err != nil {
				t.Fatal(err)
			}
			if flow != want {
				t.Errorf("%v δ=%d: DP flow %v, enumeration max %v", mo, d, flow, want)
			}
			if windowCounts(dpSt) != windowCounts(st) {
				t.Errorf("%v δ=%d: (matches, anchors, skipped, processed) DP=%v Count=%v", mo, d, windowCounts(dpSt), windowCounts(st))
			}
		}
	})
}

// TestDPAllocsPerWindow: a warmed DP runner evaluates windows out of its
// own scratch, as a warmed enumerator counting the same matches does.
func TestDPAllocsPerWindow(t *testing.T) {
	g := randomGraph(7, 4, 400, 200)
	mo := motif.MustPath(0, 1, 2, 0)
	matches, err := CollectMatches(g, mo, 20)
	if err != nil {
		t.Fatal(err)
	}
	e := newMatchEnum(g, mo, Params{Delta: 20}, func(f float64) bool { return f >= 0 }, math.MinInt64, math.MaxInt64, nil)
	passes := map[string]func(){"enumerator": func() {
		for i := range matches {
			e.run(&matches[i])
		}
	}}
	for _, fast := range []bool{false, true} {
		r := newDPRunner(g, mo, 20, fast, nil)
		passes[fmt.Sprintf("DP fast=%v", fast)] = func() {
			for i := range matches {
				r.run(&matches[i], nil)
			}
		}
	}
	for name, pass := range passes {
		pass()
		if n := testing.AllocsPerRun(10, pass); n != 0 {
			t.Errorf("%s: %v allocations per warmed pass over %d matches, want 0", name, n, len(matches))
		}
	}
	if e.stats.WindowsProcessed == 0 {
		t.Fatal("degenerate test: no window processed")
	}
}

func TestTopKMatchesFullEnumeration(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		g := randomGraph(seed, 6, 50, 40)
		mo := motif.MustPath(0, 1, 2)
		all, err := Collect(g, mo, Params{Delta: 10, Phi: 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows := make([]float64, len(all))
		for i, in := range all {
			flows[i] = in.Flow
		}
		// Selection sort descending (tiny).
		for i := 0; i < len(flows); i++ {
			for j := i + 1; j < len(flows); j++ {
				if flows[j] > flows[i] {
					flows[i], flows[j] = flows[j], flows[i]
				}
			}
		}
		for _, k := range []int{1, 3, 10} {
			got, _, err := TopK(g, mo, 10, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := k
			if n > len(flows) {
				n = len(flows)
			}
			if len(got) != n {
				t.Fatalf("seed=%d k=%d: got %d instances, want %d", seed, k, len(got), n)
			}
			for i := 0; i < n; i++ {
				if math.Abs(got[i].Flow-flows[i]) > 1e-12 {
					t.Errorf("seed=%d k=%d: flow[%d]=%v, want %v", seed, k, i, got[i].Flow, flows[i])
				}
			}
		}
	}
}

func TestPerMatchAndPerWindowTopOne(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)

	best := 0.0
	matches := 0
	err := TopOnePerMatch(g, mo, 10, func(mt *match.Match, flow float64) {
		matches++
		if flow > best {
			best = flow
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if matches != 3 { // three rotations of the triangle
		t.Errorf("per-match callbacks = %d, want 3", matches)
	}
	if best != 5 {
		t.Errorf("best per-match flow = %v, want 5", best)
	}

	winBest := 0.0
	windows := 0
	err = TopOnePerWindow(g, mo, 10, func(mt *match.Match, ts int64, flow float64) {
		windows++
		if flow > winBest {
			winBest = flow
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if windows == 0 {
		t.Error("no windows reported")
	}
	if winBest != 5 {
		t.Errorf("best per-window flow = %v, want 5", winBest)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	_, stats, err := Count(g, mo, Params{Delta: 10, Phi: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matches != 3 {
		t.Errorf("Matches = %d, want 3", stats.Matches)
	}
	if stats.Anchors == 0 || stats.WindowsProcessed == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	// The (0,1,2) rotation contributes the four figure-7 instances; the
	// rotations (1,2,0) and (2,0,1) contribute one each.
	if stats.Instances != 6 {
		t.Errorf("Instances = %d, want 6", stats.Instances)
	}
}

// TestDeterministicOrder asserts the single-worker enumeration emits
// instances in a stable order across runs.
func TestDeterministicOrder(t *testing.T) {
	g := randomGraph(11, 8, 120, 80)
	mo := motif.MustPath(0, 1, 2)
	var first []string
	for run := 0; run < 3; run++ {
		var keys []string
		_, err := Enumerate(g, mo, Params{Delta: 25, Phi: 1}, func(in *Instance) bool {
			keys = append(keys, instanceKey(in))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = keys
			continue
		}
		if len(keys) != len(first) {
			t.Fatalf("run %d: %d instances vs %d", run, len(keys), len(first))
		}
		for i := range keys {
			if keys[i] != first[i] {
				t.Fatalf("run %d: order diverged at %d", run, i)
			}
		}
	}
}

// TestLongChainMotif exercises a deep (6-edge) chain against the oracle:
// recursion depth, forced splits and window bounds at m above the catalog
// sizes. Kept small — the oracle is exponential in the chain length.
func TestLongChainMotif(t *testing.T) {
	mo := motif.MustPath(0, 1, 2, 3, 4, 5, 6)
	for seed := int64(70); seed < 72; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A line-ish graph so deep chains actually exist.
		var evs []temporal.Event
		for i := 0; i < 7; i++ {
			for k := 0; k < 2; k++ {
				evs = append(evs, temporal.Event{
					From: temporal.NodeID(i),
					To:   temporal.NodeID(i + 1),
					T:    int64(i*10 + k*3 + rng.Intn(3)),
					F:    float64(1 + rng.Intn(4)),
				})
			}
		}
		g, err := temporal.NewGraph(evs)
		if err != nil {
			t.Fatal(err)
		}
		for _, phi := range []float64{0, 3} {
			want := oracleEnumerate(g, mo, 70, phi)
			got, err := Collect(g, mo, Params{Delta: 70, Phi: phi}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := keySetsEqual(instanceKeySet(got), instanceKeySet(want)); !ok {
				t.Errorf("seed=%d φ=%v: %s", seed, phi, why)
			}
		}
	}
}

// TestInstanceCloneIndependent guards the Clone contract used by retainers.
func TestInstanceCloneIndependent(t *testing.T) {
	g := figure7Graph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	ins, err := Collect(g, mo, Params{Delta: 10, Phi: 0}, 1)
	if err != nil || len(ins) == 0 {
		t.Fatal(err)
	}
	orig := ins[0]
	cl := orig.Clone()
	cl.Nodes[0] = 99
	cl.Spans[0].Start = 77
	cl.EdgeFlows[0] = -1
	if orig.Nodes[0] == 99 || orig.Spans[0].Start == 77 || orig.EdgeFlows[0] == -1 {
		t.Error("Clone shares storage with the original")
	}
}
