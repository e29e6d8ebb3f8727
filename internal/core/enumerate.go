package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// Enumerate finds every maximal instance of mo in g under p and streams it
// to visit (which may be nil to count only). With p.Workers <= 1 the
// instance order is deterministic; otherwise visit must be safe for
// concurrent use.
func Enumerate(g *temporal.Graph, mo *motif.Motif, p Params, visit Visitor) (EnumStats, error) {
	if err := p.validate(); err != nil {
		return EnumStats{}, err
	}
	pass := func(f float64) bool { return f >= p.Phi }
	if p.Workers > 1 {
		return enumerateParallel(g, mo, p, pass, math.MinInt64, math.MaxInt64, plain(visit))
	}
	return enumerate(g, fullWalk(g, mo, p.Delta), mo, p, pass, math.MinInt64, math.MaxInt64, plain(visit)), nil
}

// EnumerateMatches runs phase P2 only, over pre-collected structural
// matches. This is the instrumented mode used to time the two phases
// separately (paper Table 4 and Figure 12).
func EnumerateMatches(g *temporal.Graph, mo *motif.Motif, matches []match.Match, p Params, visit Visitor) (EnumStats, error) {
	if err := p.validate(); err != nil {
		return EnumStats{}, err
	}
	pass := func(f float64) bool { return f >= p.Phi }
	return enumerate(g, sliceSource(matches), mo, p, pass, math.MinInt64, math.MaxInt64, plain(visit)), nil
}

// Count returns the number of maximal instances of mo in g under p.
func Count(g *temporal.Graph, mo *motif.Motif, p Params) (int64, EnumStats, error) {
	st, err := Enumerate(g, mo, p, nil)
	return st.Instances, st, err
}

// Collect materializes up to limit instances (limit <= 0 means all).
func Collect(g *temporal.Graph, mo *motif.Motif, p Params, limit int) ([]*Instance, error) {
	var out []*Instance
	_, err := Enumerate(g, mo, p, func(in *Instance) bool {
		out = append(out, in)
		return limit <= 0 || len(out) < limit
	})
	return out, err
}

// enumerate drives phase P2 serially over a match source, with window
// anchors restricted to [anchorLo, anchorHi] (pass the full int64 range
// for an unrestricted search).
func enumerate(g *temporal.Graph, src matchSource, mo *motif.Motif, p Params, pass passFunc, anchorLo, anchorHi int64, visit boundVisitor) EnumStats {
	e := newMatchEnum(g, mo, p, pass, anchorLo, anchorHi, visit)
	src(func(m *match.Match) bool {
		e.stats.Matches++
		e.run(m)
		return !e.stopped
	})
	return e.stats
}

func enumerateParallel(g *temporal.Graph, mo *motif.Motif, p Params, pass passFunc, anchorLo, anchorHi int64, visit boundVisitor) (EnumStats, error) {
	var (
		total   EnumStats
		mu      sync.Mutex
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newMatchEnum(g, mo, p, pass, anchorLo, anchorHi, visit)
			// One walker per worker; start nodes are the sharding unit.
			w := newPathWalker(g, mo, p.Delta, anchorLo, anchorHi, func(m *match.Match) bool {
				e.stats.Matches++
				e.run(m)
				if e.stopped {
					stopped.Store(true)
				}
				return !stopped.Load()
			})
			for !stopped.Load() {
				u := next.Add(1) - 1
				if u >= int64(g.NumNodes()) {
					break
				}
				w.from(temporal.NodeID(u))
			}
			mu.Lock()
			total.add(&e.stats)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, nil
}

// passFunc reports whether an edge-set with the given aggregated flow is
// admissible (>= φ for plain search; beats the current k-th flow for top-k).
type passFunc func(flow float64) bool

// boundVisitor is the internal visitor: besides the instance it receives
// bound, the smallest value Algorithm 1 compared against the threshold on
// the way to it (availability prunes, running prefix sums, the final
// edge-set's FlowRange). The instance is emitted at threshold φ iff pass
// held for every one of those values, so bound >= φ' decides — on exactly
// the comparisons a separate run at φ' >= φ would make — whether that run
// would emit it too (SweepMatchesRange, plan.go).
type boundVisitor func(in *Instance, bound float64) bool

// plain adapts a Visitor (nil stays nil: count only).
func plain(visit Visitor) boundVisitor {
	if visit == nil {
		return nil
	}
	return func(in *Instance, _ float64) bool { return visit(in) }
}

// matchEnum is the per-goroutine state of Algorithm 1.
type matchEnum struct {
	g     *temporal.Graph
	delta int64
	prune bool // availability pruning enabled
	pass  passFunc
	visit boundVisitor
	stats EnumStats

	m      int // number of motif edges
	series [][]temporal.Point
	arcs   []int
	nodes  []temporal.NodeID

	// Per-anchor window bounds into each edge's series; monotone in the
	// anchor, so they advance amortized O(1) per anchor.
	lb []int // first index with T > anchor time (edges 1..m-1)
	ub []int // first index with T > window end

	// Anchor-time restriction: only windows anchored at timestamps within
	// [anchorLo, anchorHi] are processed. The default (full int64 range)
	// reproduces plain Enumerate; EnumerateRange narrows it so the
	// streaming subsystem can finalize one watermark band at a time.
	anchorLo, anchorHi int64

	spans   []Span
	stopped bool
}

func newMatchEnum(g *temporal.Graph, mo *motif.Motif, p Params, pass passFunc, anchorLo, anchorHi int64, visit boundVisitor) *matchEnum {
	m := mo.NumEdges()
	return &matchEnum{
		g:        g,
		delta:    p.Delta,
		prune:    !p.DisableAvailPrune,
		pass:     pass,
		visit:    visit,
		m:        m,
		series:   make([][]temporal.Point, m),
		lb:       make([]int, m),
		ub:       make([]int, m),
		spans:    make([]Span, m),
		anchorLo: anchorLo,
		anchorHi: anchorHi,
	}
}

// run applies Algorithm 1 to one structural match.
func (e *matchEnum) run(mt *match.Match) {
	m := e.m
	for i := 0; i < m; i++ {
		e.series[i] = e.g.Series(mt.Arcs[i])
		e.lb[i] = 0
		e.ub[i] = 0
	}
	e.arcs = mt.Arcs
	e.nodes = mt.Nodes

	s0 := e.series[0]
	last := e.series[m-1]

	// Fast feasibility reject: chase the minimal strictly-increasing chain
	// of event times through the series. Most structural matches admit no
	// time-respecting assignment at all; this check costs O(m log n)
	// instead of a full anchor scan.
	aStart := 0
	lastT := last[len(last)-1].T
	if m > 1 {
		tprev := s0[0].T
		for i := 1; i < m; i++ {
			s := e.series[i]
			idx := sort.Search(len(s), func(k int) bool { return s[k].T > tprev })
			if idx == len(s) {
				return
			}
			tprev = s[idx].T
		}
		// Windows ending before the chain's minimal completion time are
		// dead; jump straight to the first anchor that can reach it.
		aStart = sort.Search(len(s0), func(k int) bool { return temporal.SatAdd(s0[k].T, e.delta) >= tprev })
		if aStart == len(s0) {
			return
		}
	}
	if e.anchorLo > s0[aStart].T {
		// Anchor-range restriction: jump to the first in-range anchor. The
		// window-skip rule below still sees pre-range predecessors (s0 is
		// the full series), so maximality decisions are unchanged.
		i := sort.Search(len(s0), func(k int) bool { return s0[k].T >= e.anchorLo })
		if i > aStart {
			aStart = i
		}
		if aStart == len(s0) {
			return
		}
	}

	for a := aStart; a < len(s0) && !e.stopped; a++ {
		if s0[a].T > e.anchorHi {
			break // past the anchor range
		}
		if m > 1 && s0[a].T >= lastT {
			break // no final-edge event can follow this anchor
		}
		ts := s0[a].T
		te := temporal.SatAdd(ts, e.delta)
		e.stats.Anchors++

		// Advance the monotone window bounds.
		for j := 1; j < m; j++ {
			s := e.series[j]
			for e.lb[j] < len(s) && s[e.lb[j]].T <= ts {
				e.lb[j]++
			}
		}
		for j := 0; j < m; j++ {
			s := e.series[j]
			for e.ub[j] < len(s) && s[e.ub[j]].T <= te {
				e.ub[j]++
			}
		}

		// The final edge needs at least one in-window event...
		lbLast := e.lb[m-1]
		if m == 1 {
			lbLast = a
		}
		if e.ub[m-1] <= lbLast {
			continue
		}
		// ...and, for maximality, one beyond the previous anchor's reach
		// (window skip rule): otherwise every combo of this window extends
		// backwards with the previous first-edge event.
		if a > 0 && last[e.ub[m-1]-1].T <= temporal.SatAdd(s0[a-1].T, e.delta) {
			e.stats.WindowsSkipped++
			continue
		}

		// Availability pruning: every motif edge must be able to reach the
		// admission threshold using all of its in-window events.
		bound := math.Inf(1)
		if e.prune {
			bound = e.flowRange(0, a, e.ub[0])
			feasible := e.pass(bound)
			for j := 1; feasible && j < m; j++ {
				f := e.flowRange(j, e.lb[j], e.ub[j])
				feasible = e.pass(f)
				bound = min(bound, f)
			}
			if !feasible {
				e.stats.AvailPruned++
				continue
			}
		}

		e.stats.WindowsProcessed++
		e.findInstances(0, a, bound)
	}
}

// flowRange returns the aggregated flow of series[edge][i:j].
func (e *matchEnum) flowRange(edge, i, j int) float64 {
	return e.g.FlowRange(e.arcs[edge], i, j)
}

// findInstances is the recursive FindInstances procedure of Algorithm 1:
// level is the motif-edge index, startIdx the first event of its edge-set
// (the first series event after the previous level's split), bound the
// smallest flow compared on the path so far (see boundVisitor).
func (e *matchEnum) findInstances(level, startIdx int, bound float64) {
	s := e.series[level]
	ub := e.ub[level]
	if startIdx >= ub {
		return
	}
	if e.prune && level > 0 {
		// The whole remaining sub-window cannot reach the threshold.
		f := e.flowRange(level, startIdx, ub)
		if !e.pass(f) {
			e.stats.AvailPruned++
			return
		}
		bound = min(bound, f)
	}
	if level == e.m-1 {
		// Final edge: the maximal edge-set takes every event up to the
		// window end (any shorter suffix is extendable, hence non-maximal).
		flow := e.flowRange(level, startIdx, ub)
		if e.pass(flow) {
			e.spans[level] = Span{Start: int32(startIdx), End: int32(ub)}
			e.emit(min(bound, flow))
		}
		return
	}

	next := e.series[level+1]
	ubNext := e.ub[level+1]
	// fIdx tracks the first next-level event strictly after the current
	// prefix end; it starts at the window bound and advances with p.
	fIdx := e.lb[level+1]

	flow := 0.0
	for p := startIdx; p < ub; p++ {
		flow += s[p].F
		for fIdx < len(next) && next[fIdx].T <= s[p].T {
			fIdx++
		}
		if fIdx >= ubNext {
			// No next-level events remain in the window; longer prefixes
			// only push the boundary further.
			break
		}
		e.stats.SplitsTried++
		if p+1 < ub && next[fIdx].T > s[p+1].T {
			// Split not forced: the next series event could be added to
			// this edge-set without violating anything, so ending here
			// would be non-maximal (and a duplicate of the longer prefix).
			continue
		}
		if !e.pass(flow) {
			e.stats.PhiPruned++ // Algorithm 1 line 16
			continue
		}
		e.spans[level] = Span{Start: int32(startIdx), End: int32(p + 1)}
		e.findInstances(level+1, fIdx, min(bound, flow))
		if e.stopped {
			return
		}
	}
}

func (e *matchEnum) emit(bound float64) {
	e.stats.Instances++
	if e.visit == nil {
		return
	}
	m := e.m
	inst := &Instance{
		Nodes:     append([]temporal.NodeID(nil), e.nodes...),
		Arcs:      append([]int(nil), e.arcs...),
		Spans:     append([]Span(nil), e.spans...),
		EdgeFlows: make([]float64, m),
	}
	minFlow := 0.0
	for i := 0; i < m; i++ {
		f := e.flowRange(i, int(e.spans[i].Start), int(e.spans[i].End))
		inst.EdgeFlows[i] = f
		if i == 0 || f < minFlow {
			minFlow = f
		}
	}
	inst.Flow = minFlow
	inst.Start = e.series[0][e.spans[0].Start].T
	inst.End = e.series[m-1][e.spans[m-1].End-1].T
	if !e.visit(inst, bound) {
		e.stopped = true
	}
}
