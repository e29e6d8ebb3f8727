package temporal

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// paperGraph returns the bitcoin user graph of the paper's Figure 2.
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(PaperFigure2Events())
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return g
}

// PaperFigure2Events is the running example of the paper (Figure 2):
// u1..u4 are nodes 0..3.
func PaperFigure2Events() []Event {
	return []Event{
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
	}
}

func TestNewGraphBasicShape(t *testing.T) {
	g := paperGraph(t)
	if got := g.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := g.NumArcs(); got != 7 {
		t.Errorf("NumArcs = %d, want 7", got)
	}
	if got := g.NumEvents(); got != 10 {
		t.Errorf("NumEvents = %d, want 10", got)
	}
	minT, maxT := g.TimeSpan()
	if minT != 1 || maxT != 23 {
		t.Errorf("TimeSpan = (%d, %d), want (1, 23)", minT, maxT)
	}
}

func TestSeriesMergedAndSorted(t *testing.T) {
	g := paperGraph(t)
	a, ok := g.FindArc(0, 1)
	if !ok {
		t.Fatal("arc (0,1) not found")
	}
	s := g.Series(a)
	want := []Point{{T: 13, F: 5}, {T: 15, F: 7}}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("Series(0,1) = %v, want %v", s, want)
	}
	if got := g.FlowRange(a, 0, 2); got != 12 {
		t.Errorf("FlowRange = %v, want 12", got)
	}
	if got := g.FlowRange(a, 1, 2); got != 7 {
		t.Errorf("FlowRange suffix = %v, want 7", got)
	}
	if got := g.FlowRange(a, 1, 1); got != 0 {
		t.Errorf("empty FlowRange = %v, want 0", got)
	}
}

func TestFindArc(t *testing.T) {
	g := paperGraph(t)
	cases := []struct {
		u, v NodeID
		ok   bool
	}{
		{0, 1, true}, {1, 2, true}, {2, 0, true}, {3, 0, true},
		{3, 2, true}, {2, 3, true}, {1, 3, true},
		{1, 0, false}, {0, 2, false}, {0, 3, false}, {2, 1, false},
	}
	for _, c := range cases {
		arc, got := g.FindArc(c.u, c.v)
		if got != c.ok {
			t.Errorf("FindArc(%d,%d) ok = %v, want %v", c.u, c.v, got, c.ok)
		}
		if got {
			if g.ArcSource(arc) != c.u || g.ArcTarget(arc) != c.v {
				t.Errorf("arc (%d,%d) endpoints = (%d,%d)", c.u, c.v, g.ArcSource(arc), g.ArcTarget(arc))
			}
		}
	}
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := paperGraph(t)
	if got := g.OutDegree(2); got != 2 { // 2->0, 2->3
		t.Errorf("OutDegree(2) = %d, want 2", got)
	}
	lo, hi := g.OutArcs(0)
	if hi-lo != 1 || g.ArcTarget(lo) != 1 {
		t.Errorf("OutArcs(0): [%d,%d) target %d", lo, hi, g.ArcTarget(lo))
	}
}

func TestStatsTable3Shape(t *testing.T) {
	g := paperGraph(t)
	st := g.Stats()
	if st.Nodes != 4 || st.ConnectedPairs != 7 || st.Events != 10 {
		t.Errorf("stats = %+v", st)
	}
	wantAvg := (5 + 7 + 10 + 2 + 5 + 10 + 20 + 5 + 4 + 7) / 10.0
	if math.Abs(st.AvgFlow-wantAvg) > 1e-12 {
		t.Errorf("AvgFlow = %v, want %v", st.AvgFlow, wantAvg)
	}
	if st.MaxSeriesLen != 2 {
		t.Errorf("MaxSeriesLen = %d, want 2", st.MaxSeriesLen)
	}
	if st.SelfLoops != 0 {
		t.Errorf("SelfLoops = %d, want 0", st.SelfLoops)
	}
}

func TestEventsRoundTrip(t *testing.T) {
	in := PaperFigure2Events()
	g, err := NewGraph(in)
	if err != nil {
		t.Fatal(err)
	}
	back := g.Events()
	g2, err := NewGraph(back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Events(), g2.Events()) {
		t.Error("Events round trip not stable")
	}
	if g2.TotalFlow() != g.TotalFlow() || g2.NumArcs() != g.NumArcs() {
		t.Error("round-tripped graph differs")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewGraph([]Event{{From: 0, To: 1, T: 1, F: 0}}); err == nil {
		t.Error("zero flow accepted")
	}
	if _, err := NewGraph([]Event{{From: 0, To: 1, T: 1, F: -2}}); err == nil {
		t.Error("negative flow accepted")
	}
	if _, err := NewGraph([]Event{{From: 0, To: 1, T: 1, F: math.NaN()}}); err == nil {
		t.Error("NaN flow accepted")
	}
	if _, err := NewGraph([]Event{{From: -1, To: 1, T: 1, F: 1}}); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := NewGraphWithNodes(2, []Event{{From: 0, To: 5, T: 1, F: 1}}); err == nil {
		t.Error("out-of-universe node accepted")
	}
	if _, err := NewGraphWithNodes(-1, nil); err == nil {
		t.Error("negative universe accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewGraph(nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumArcs() != 0 || g.NumEvents() != 0 {
		t.Errorf("empty graph not empty: %v", g)
	}
	g2, err := NewGraphWithNodes(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 5 || g2.NumArcs() != 0 {
		t.Errorf("empty 5-node graph wrong: %v", g2)
	}
	if _, ok := g2.FindArc(0, 1); ok {
		t.Error("FindArc on empty graph returned ok")
	}
}

func TestSelfLoopsAllowedAndCounted(t *testing.T) {
	g, err := NewGraph([]Event{
		{From: 0, To: 0, T: 1, F: 3},
		{From: 0, To: 1, T: 2, F: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats().SelfLoops != 1 {
		t.Errorf("SelfLoops = %d, want 1", g.Stats().SelfLoops)
	}
	if _, ok := g.FindArc(0, 0); !ok {
		t.Error("self-loop arc missing")
	}
}

func TestDuplicateTimestampsKept(t *testing.T) {
	// Facebook-style 30-second buckets produce ties; both points kept.
	g, err := NewGraph([]Event{
		{From: 0, To: 1, T: 30, F: 2},
		{From: 0, To: 1, T: 30, F: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.FindArc(0, 1)
	s := g.Series(a)
	if len(s) != 2 || s[0].T != 30 || s[1].T != 30 {
		t.Errorf("tied series = %v", s)
	}
	if s[0].F > s[1].F {
		t.Error("tied points not deterministically ordered by flow")
	}
}

func TestWithFlows(t *testing.T) {
	g := paperGraph(t)
	flows := g.Flows()
	// Reverse the flows: structure identical, flows permuted.
	for i, j := 0, len(flows)-1; i < j; i, j = i+1, j-1 {
		flows[i], flows[j] = flows[j], flows[i]
	}
	ng, err := g.WithFlows(flows)
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumArcs() != g.NumArcs() || ng.NumEvents() != g.NumEvents() {
		t.Error("structure changed")
	}
	if math.Abs(ng.TotalFlow()-g.TotalFlow()) > 1e-9 {
		t.Errorf("total flow changed: %v vs %v", ng.TotalFlow(), g.TotalFlow())
	}
	for a := 0; a < g.NumArcs(); a++ {
		sOld, sNew := g.Series(a), ng.Series(a)
		for i := range sOld {
			if sOld[i].T != sNew[i].T {
				t.Fatalf("timestamp changed on arc %d", a)
			}
		}
	}
	// Original untouched.
	a, _ := g.FindArc(0, 1)
	if g.Series(a)[0].F != 5 {
		t.Error("WithFlows mutated the source graph")
	}

	if _, err := g.WithFlows(flows[:3]); err == nil {
		t.Error("short flow slice accepted")
	}
	bad := g.Flows()
	bad[0] = -1
	if _, err := g.WithFlows(bad); err == nil {
		t.Error("negative replacement flow accepted")
	}
}

func TestPrefixByTime(t *testing.T) {
	g := paperGraph(t)
	p := g.PrefixByTime(11)
	if p.NumNodes() != g.NumNodes() {
		t.Errorf("prefix node universe changed: %d", p.NumNodes())
	}
	if p.NumEvents() != 5 { // t = 1,3,10,11 and... t<=11: 1,3,10,11 => 4? plus none at 11? recount
		// events: t in {13,15,10,1,3,11,18,19,21,23}; <=11: {10,1,3,11} = 4
		t.Logf("events kept: %d", p.NumEvents())
	}
	if p.NumEvents() != 4 {
		t.Errorf("PrefixByTime(11) kept %d events, want 4", p.NumEvents())
	}
	full := g.PrefixByTime(1000)
	if full.NumEvents() != g.NumEvents() || full.NumArcs() != g.NumArcs() {
		t.Error("full prefix differs from original")
	}
	empty := g.PrefixByTime(0)
	if empty.NumEvents() != 0 {
		t.Errorf("PrefixByTime(0) kept %d events", empty.NumEvents())
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.ID("addr-a")
	b := in.ID("addr-b")
	if a == b {
		t.Error("distinct labels shared an id")
	}
	if got := in.ID("addr-a"); got != a {
		t.Errorf("re-intern = %d, want %d", got, a)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if in.Label(a) != "addr-a" || in.Label(b) != "addr-b" {
		t.Error("labels wrong")
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Error("Lookup invented a label")
	}
}

// randomEvents builds a reproducible random event set.
func randomEvents(rng *rand.Rand, nodes, count int) []Event {
	evs := make([]Event, count)
	for i := range evs {
		evs[i] = Event{
			From: NodeID(rng.Intn(nodes)),
			To:   NodeID(rng.Intn(nodes)),
			T:    int64(rng.Intn(1000)),
			F:    1 + rng.Float64()*10,
		}
	}
	return evs
}

func TestPropertySeriesSortedAndComplete(t *testing.T) {
	f := func(seed int64, nodesU, countU uint8) bool {
		nodes := int(nodesU%20) + 1
		count := int(countU)
		rng := rand.New(rand.NewSource(seed))
		evs := randomEvents(rng, nodes, count)
		g, err := NewGraph(evs)
		if err != nil {
			return false
		}
		if g.NumEvents() != count {
			return false
		}
		total := 0.0
		for a := 0; a < g.NumArcs(); a++ {
			s := g.Series(a)
			if len(s) == 0 {
				return false // arcs exist only for connected pairs
			}
			if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].T < s[j].T }) &&
				!sort.SliceIsSorted(s, func(i, j int) bool {
					if s[i].T != s[j].T {
						return s[i].T < s[j].T
					}
					return s[i].F <= s[j].F
				}) {
				return false
			}
			got := g.FlowRange(a, 0, len(s))
			want := 0.0
			for _, p := range s {
				want += p.F
			}
			if math.Abs(got-want) > 1e-9 {
				return false
			}
			total += want
		}
		return math.Abs(total-g.TotalFlow()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFindArcMatchesAdjacency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := randomEvents(rng, 12, 80)
		g, err := NewGraph(evs)
		if err != nil {
			return false
		}
		want := map[[2]NodeID]bool{}
		for _, e := range evs {
			want[[2]NodeID{e.From, e.To}] = true
		}
		for u := NodeID(0); int(u) < g.NumNodes(); u++ {
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				_, ok := g.FindArc(u, v)
				if ok != want[[2]NodeID{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPrefixMonotone(t *testing.T) {
	f := func(seed int64, cut1, cut2 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := NewGraph(randomEvents(rng, 10, 120))
		if err != nil {
			return false
		}
		a, b := int64(cut1%1000), int64(cut2%1000)
		if a > b {
			a, b = b, a
		}
		ga, gb := g.PrefixByTime(a), g.PrefixByTime(b)
		return ga.NumEvents() <= gb.NumEvents() && gb.NumEvents() <= g.NumEvents()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
