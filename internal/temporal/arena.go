package temporal

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// GraphArena builds time-series graphs with buffer reuse: every slice a
// Graph needs (the ordering scratch, the CSR adjacency, the points arena
// and its prefix sums) is kept between builds and regrown only when a build
// outsizes the previous ones. The streaming engine's shared-evaluation
// planner (internal/stream, DESIGN.md §11) builds one snapshot per finalize
// round through an arena, so steady-state snapshot cost is two counting
// passes plus arena fills — no comparison sort, and no per-round
// allocation once the arena has warmed up.
//
// The returned graph aliases the arena: it (and every graph previously
// returned by the same arena, including derived views such as WithFlows)
// is valid only until the arena's next Build. Callers that need an
// independent graph use NewGraphWithNodes, which builds through a
// throwaway arena.
//
// An arena is not safe for concurrent builds; the graphs it returns are
// safe for concurrent readers between builds, like any Graph.
type GraphArena struct {
	sorted []Event
	tmp    []Event // counting-pass scatter target
	count  []int   // counting-pass bucket offsets
	g      *Graph
}

// Build constructs the time-series graph of events over the node universe
// 0..numNodes-1, reusing the arena's buffers. Validation matches
// NewGraphWithNodes; on error the arena is unchanged and the previously
// returned graph stays valid.
func (a *GraphArena) Build(numNodes int, events []Event) (*Graph, error) {
	if numNodes < 0 {
		return nil, fmt.Errorf("temporal: negative node universe %d", numNodes)
	}
	inTimeOrder := true
	for i := range events {
		e := &events[i]
		if i > 0 && e.T < events[i-1].T {
			inTimeOrder = false
		}
		if !validEvent(e) {
			return nil, fmt.Errorf("event %d: %w", i, CheckEvent(*e))
		}
		if int(e.From) >= numNodes || int(e.To) >= numNodes {
			return nil, fmt.Errorf("temporal: event %d references node outside universe of %d nodes", i, numNodes)
		}
	}

	sorted := a.order(numNodes, events, inTimeOrder)

	if a.g == nil {
		a.g = &Graph{}
	}
	g := a.g
	g.numNodes = numNodes
	g.minT, g.maxT = math.MaxInt64, math.MinInt64
	g.totalFlow = 0
	g.selfLoops = 0
	g.outOff = zeroedInts(g.outOff, numNodes+1)
	g.outTo = g.outTo[:0]
	g.arcSrc = g.arcSrc[:0]
	g.arcOff = g.arcOff[:0]
	g.points = g.points[:0]
	g.cum = append(g.cum[:0], 0)

	for i := range sorted {
		e := sorted[i]
		if i == 0 || e.From != sorted[i-1].From || e.To != sorted[i-1].To {
			g.arcOff = append(g.arcOff, len(g.points))
			g.outTo = append(g.outTo, e.To)
			g.arcSrc = append(g.arcSrc, e.From)
			g.outOff[e.From+1]++ // provisional per-node arc count
		}
		g.points = append(g.points, Point{T: e.T, F: e.F})
		g.cum = append(g.cum, g.cum[len(g.cum)-1]+e.F)
		g.totalFlow += e.F
		if e.T < g.minT {
			g.minT = e.T
		}
		if e.T > g.maxT {
			g.maxT = e.T
		}
		if e.From == e.To {
			g.selfLoops++
		}
	}
	g.arcOff = append(g.arcOff, len(g.points))
	for u := 0; u < numNodes; u++ {
		g.outOff[u+1] += g.outOff[u]
	}
	if len(sorted) == 0 {
		g.minT, g.maxT = 0, 0
	}
	return g, nil
}

// order returns events sorted by (From, To, T, F) in the arena's sorted
// buffer. A time-ordered input — every snapshot the stream engine builds,
// since a WindowLog holds its events in time order — is ordered by two
// stable counting passes, by To and then by From, which leave each
// (From, To) pair's events in time order; any other input is first sorted
// by T. Runs of equal (From, To, T) are then put in F order, the tie-break
// of a full comparison sort.
func (a *GraphArena) order(numNodes int, events []Event, inTimeOrder bool) []Event {
	src := events
	if !inTimeOrder {
		a.sorted = append(a.sorted[:0], events...)
		slices.SortFunc(a.sorted, func(x, y Event) int { return cmp.Compare(x.T, y.T) })
		src = a.sorted
	}
	a.tmp = resizeSlice(a.tmp, len(events))
	a.sorted = resizeSlice(a.sorted, len(events))
	a.countingPass(numNodes, src, a.tmp, false)
	a.countingPass(numNodes, a.tmp, a.sorted, true)

	s := a.sorted
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].F < s[j-1].F && s[j].T == s[j-1].T && s[j].To == s[j-1].To && s[j].From == s[j-1].From; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// countingPass scatters src into dst stably by From (byFrom) or To, both
// node ids below numNodes.
func (a *GraphArena) countingPass(numNodes int, src, dst []Event, byFrom bool) {
	key := func(e *Event) NodeID {
		if byFrom {
			return e.From
		}
		return e.To
	}
	a.count = zeroedInts(a.count, numNodes+1)
	count := a.count
	for i := range src {
		count[key(&src[i])+1]++
	}
	for v := 0; v < numNodes; v++ {
		count[v+1] += count[v]
	}
	for i := range src {
		k := key(&src[i])
		dst[count[k]] = src[i]
		count[k]++
	}
}

// zeroedInts returns a zero-filled length-n slice, reusing capacity.
func zeroedInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeSlice returns a length-n slice reusing capacity; contents are
// unspecified (the caller overwrites every element).
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
