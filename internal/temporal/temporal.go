// Package temporal implements the interaction-network substrate of the
// flow-motif system: a directed temporal multigraph G(V, E) whose edges
// carry timestamps and positive flow values, stored in its merged
// "time-series graph" form GT(V, ET) (Kosyfaki et al., EDBT 2019, §3–4).
//
// Every ordered node pair (u, v) connected by at least one event becomes an
// arc of GT; the arc carries the interaction time series R(u, v), the
// time-ordered sequence of (t, f) points between u and v. The graph is an
// immutable, cache-friendly CSR structure:
//
//   - out-adjacency: for each node, the sorted list of out-neighbours; the
//     position of a neighbour entry is the arc identifier;
//   - a single points arena holding all series back to back, plus one global
//     prefix-sum array so that the aggregated flow of any contiguous series
//     range is two array reads.
//
// Graphs are safe for concurrent readers.
package temporal

import (
	"fmt"
	"sort"
)

// NodeID identifies a vertex of the interaction network. Node identifiers
// are expected to be dense (0..NumNodes-1); use Interner to map external
// string identifiers onto dense ids.
type NodeID int32

// Point is one interaction element (t, f) on an arc's time series.
type Point struct {
	T int64   // timestamp
	F float64 // flow transferred at T (positive)
}

// Event is one edge of the input multigraph: at time T, From sent F units of
// flow to To.
type Event struct {
	From NodeID
	To   NodeID
	T    int64
	F    float64
}

// Graph is the immutable time-series graph GT(V, ET).
type Graph struct {
	numNodes int

	// Out-adjacency CSR. Arc a (0 <= a < NumArcs) is the entry outTo[a];
	// arcs of node u occupy outTo[outOff[u]:outOff[u+1]], sorted by target.
	outOff []int
	outTo  []NodeID
	arcSrc []NodeID // source node per arc

	// Series arena: points of arc a are points[arcOff[a]:arcOff[a+1]],
	// sorted by T. cum[i] is the total flow of points[0:i] (global prefix
	// sums; differences are only ever taken within one arc).
	arcOff []int
	points []Point
	cum    []float64

	minT, maxT int64
	totalFlow  float64
	selfLoops  int
}

// Stats summarizes a graph in the shape of the paper's Table 3.
type Stats struct {
	Nodes          int     // |V|
	ConnectedPairs int     // |ET|: node pairs with at least one event
	Events         int     // |E|: multigraph edges
	AvgFlow        float64 // mean flow per event
	MinT, MaxT     int64   // time span covered
	MaxSeriesLen   int     // longest per-arc series
	AvgSeriesLen   float64 // Events / ConnectedPairs
	SelfLoops      int     // events with From == To
}

// NewGraph builds a time-series graph from events, inferring the node count
// as max(id)+1. The input slice is not modified.
func NewGraph(events []Event) (*Graph, error) {
	return NewGraphWithNodes(rangeUniverse(events), events)
}

// NewGraphWithNodes builds a time-series graph over a fixed node universe
// 0..numNodes-1. Events referring to nodes outside the universe are an
// error, as are non-positive flows. The input slice is not modified. The
// graph is built through a throwaway GraphArena (arena.go), so it owns its
// buffers and lives independently; repeated builders that can tolerate the
// aliasing contract reuse an arena instead.
func NewGraphWithNodes(numNodes int, events []Event) (*Graph, error) {
	var a GraphArena
	return a.Build(numNodes, events)
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumArcs returns |ET|, the number of connected ordered node pairs.
func (g *Graph) NumArcs() int { return len(g.outTo) }

// NumEvents returns |E|, the number of multigraph edges.
func (g *Graph) NumEvents() int { return len(g.points) }

// OutDegree returns the number of distinct out-neighbours of u.
func (g *Graph) OutDegree(u NodeID) int { return g.outOff[u+1] - g.outOff[u] }

// OutArcs returns the half-open arc-id range [lo, hi) of node u's out-arcs.
func (g *Graph) OutArcs(u NodeID) (lo, hi int) { return g.outOff[u], g.outOff[u+1] }

// ArcTarget returns the head node of arc a.
func (g *Graph) ArcTarget(a int) NodeID { return g.outTo[a] }

// ArcSource returns the tail node of arc a.
func (g *Graph) ArcSource(a int) NodeID { return g.arcSrc[a] }

// FindArc returns the arc id of (u, v) if the pair is connected.
func (g *Graph) FindArc(u, v NodeID) (int, bool) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	i := lo + sort.Search(hi-lo, func(i int) bool { return g.outTo[lo+i] >= v })
	if i < hi && g.outTo[i] == v {
		return i, true
	}
	return -1, false
}

// Series returns the interaction time series R(u, v) of arc a, sorted by T.
// The returned slice aliases graph storage and must not be modified.
func (g *Graph) Series(a int) []Point { return g.points[g.arcOff[a]:g.arcOff[a+1]] }

// SeriesLen returns the number of interaction elements on arc a.
func (g *Graph) SeriesLen(a int) int { return g.arcOff[a+1] - g.arcOff[a] }

// FlowRange returns the aggregated flow of the local point range [i, j) of
// arc a, in O(1) via global prefix sums.
func (g *Graph) FlowRange(a, i, j int) float64 {
	base := g.arcOff[a]
	return g.cum[base+j] - g.cum[base+i]
}

// TimeSpan returns the minimum and maximum timestamp in the graph.
func (g *Graph) TimeSpan() (minT, maxT int64) { return g.minT, g.maxT }

// TotalFlow returns the sum of all event flows.
func (g *Graph) TotalFlow() float64 { return g.totalFlow }

// Events reconstructs the multigraph edges (ordered by arc, then time).
func (g *Graph) Events() []Event {
	out := make([]Event, 0, len(g.points))
	for a := 0; a < g.NumArcs(); a++ {
		src, dst := g.arcSrc[a], g.outTo[a]
		for _, p := range g.Series(a) {
			out = append(out, Event{From: src, To: dst, T: p.T, F: p.F})
		}
	}
	return out
}

// Flows returns a copy of all event flows in arena order (arc-major,
// time-minor). Combine with WithFlows to build permuted-null-model graphs.
func (g *Graph) Flows() []float64 {
	out := make([]float64, len(g.points))
	for i, p := range g.points {
		out[i] = p.F
	}
	return out
}

// WithFlows returns a structurally identical graph (same nodes, arcs and
// timestamps) whose event flows are replaced by flows, given in the same
// arena order as Flows. Used by the significance module's permutation null
// model (§6.3 of the paper).
func (g *Graph) WithFlows(flows []float64) (*Graph, error) {
	if len(flows) != len(g.points) {
		return nil, fmt.Errorf("temporal: WithFlows needs %d flows, got %d", len(g.points), len(flows))
	}
	ng := &Graph{
		numNodes:  g.numNodes,
		outOff:    g.outOff,
		outTo:     g.outTo,
		arcSrc:    g.arcSrc,
		arcOff:    g.arcOff,
		minT:      g.minT,
		maxT:      g.maxT,
		selfLoops: g.selfLoops,
	}
	ng.points = make([]Point, len(g.points))
	ng.cum = make([]float64, len(g.points)+1)
	for a := range g.outTo {
		for i := g.arcOff[a]; i < g.arcOff[a+1]; i++ {
			f := flows[i]
			if e := (Event{From: g.arcSrc[a], To: g.outTo[a], T: g.points[i].T, F: f}); !validEvent(&e) {
				return nil, fmt.Errorf("WithFlows: flow %d: %w", i, CheckEvent(e))
			}
			ng.points[i] = Point{T: g.points[i].T, F: f}
			ng.cum[i+1] = ng.cum[i] + f
			ng.totalFlow += f
		}
	}
	return ng, nil
}

// PrefixByTime returns the sub-graph containing only events with T <= maxT,
// over the same node universe. Used for the paper's Figure-13 scalability
// samples (time-prefix datasets B1..B5, F1..F5, T1..T4).
func (g *Graph) PrefixByTime(maxT int64) *Graph {
	var kept []Event
	for a := 0; a < g.NumArcs(); a++ {
		src, dst := g.arcSrc[a], g.outTo[a]
		s := g.Series(a)
		n := sort.Search(len(s), func(i int) bool { return s[i].T > maxT })
		for _, p := range s[:n] {
			kept = append(kept, Event{From: src, To: dst, T: p.T, F: p.F})
		}
	}
	ng, err := NewGraphWithNodes(g.numNodes, kept)
	if err != nil {
		// Unreachable: kept events were already validated at construction.
		panic(err)
	}
	return ng
}

// Stats computes Table-3-style summary statistics.
func (g *Graph) Stats() Stats {
	st := Stats{
		Nodes:          g.numNodes,
		ConnectedPairs: g.NumArcs(),
		Events:         g.NumEvents(),
		MinT:           g.minT,
		MaxT:           g.maxT,
		SelfLoops:      g.selfLoops,
	}
	if st.Events > 0 {
		st.AvgFlow = g.totalFlow / float64(st.Events)
	}
	for a := 0; a < g.NumArcs(); a++ {
		if l := g.SeriesLen(a); l > st.MaxSeriesLen {
			st.MaxSeriesLen = l
		}
	}
	if st.ConnectedPairs > 0 {
		st.AvgSeriesLen = float64(st.Events) / float64(st.ConnectedPairs)
	}
	return st
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("temporal.Graph{nodes=%d arcs=%d events=%d span=[%d,%d]}",
		g.numNodes, g.NumArcs(), g.NumEvents(), g.minT, g.maxT)
}
