package core

import (
	"math"
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
	return search(g, mo, p, nil, fullWalk(g, mo, p.Delta), math.MinInt64, math.MaxInt64, plain(visit))
}

// EnumerateMatches runs phase P2 only, over pre-collected structural
// matches. This is the instrumented mode used to time the two phases
// separately (paper Table 4 and Figure 12). It is EnumerateMatchesRange
// over every anchor.
func EnumerateMatches(g *temporal.Graph, mo *motif.Motif, matches []match.Match, p Params, visit Visitor) (EnumStats, error) {
	return EnumerateMatchesRange(g, mo, matches, p, math.MinInt64, math.MaxInt64, visit)
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

// search is the one dispatch behind every Algorithm-1 entry point. It
// validates p, admits an edge-set when its flow reaches p.Phi unless pass
// says otherwise (top-k's floating threshold), and runs phase P2 over
// src's structural matches with window anchors restricted to [anchorLo,
// anchorHi]. With p.Workers <= 1 it runs src's units serially, in order;
// otherwise it is the one parallel driver: p.Workers goroutines, each with
// its own Algorithm-1 state and unit function, pull units from one shared
// counter, and a visitor that stops one of them stops them all.
func search(g *temporal.Graph, mo *motif.Motif, p Params, pass passFunc, src matchSource, anchorLo, anchorHi int64, visit boundVisitor) (EnumStats, error) {
	if err := p.validate(); err != nil {
		return EnumStats{}, err
	}
	if anchorLo > anchorHi || src.units == 0 {
		return EnumStats{}, nil
	}
	if pass == nil {
		pass = func(f float64) bool { return f >= p.Phi }
	}
	if p.Workers <= 1 {
		e := newMatchEnum(g, mo, p, pass, anchorLo, anchorHi, visit)
		src.each(e.match)
		return e.stats, nil
	}
	var (
		total   EnumStats
		mu      sync.Mutex
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	units := int64(src.units)
	for w := 0; w < p.Workers; w++ {
		e := newMatchEnum(g, mo, p, pass, anchorLo, anchorHi, visit)
		unit := src.bind(func(m *match.Match) bool {
			if !e.match(m) {
				stopped.Store(true)
			}
			return !stopped.Load()
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				u := next.Add(1) - 1
				if u >= units {
					break
				}
				unit(int(u))
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
// would emit it too (SweepMatchesRange, plan.go). The instance is borrowed
// (windowScan.view): a visitor that keeps it keeps a Clone.
type boundVisitor func(in *Instance, bound float64) bool

// plain adapts a Visitor, which owns what it receives (nil stays nil: count
// only).
func plain(visit Visitor) boundVisitor {
	if visit == nil {
		return nil
	}
	return func(in *Instance, _ float64) bool { return visit(in.Clone()) }
}

// matchEnum is the per-goroutine state of Algorithm 1: what it does with
// each window the scan yields.
type matchEnum struct {
	windowScan
	prune   bool // availability pruning enabled
	pass    passFunc
	visit   boundVisitor
	stopped bool
}

func newMatchEnum(g *temporal.Graph, mo *motif.Motif, p Params, pass passFunc, anchorLo, anchorHi int64, visit boundVisitor) *matchEnum {
	return &matchEnum{
		windowScan: newWindowScan(g, mo, p.Delta, anchorLo, anchorHi),
		prune:      !p.DisableAvailPrune,
		pass:       pass,
		visit:      visit,
	}
}

// match counts one structural match and runs Algorithm 1 on it; as a
// match.Visitor it returns false once the enumeration's visitor stopped.
func (e *matchEnum) match(m *match.Match) bool {
	e.stats.Matches++
	e.run(m)
	return !e.stopped
}

// run applies Algorithm 1 to one structural match.
func (e *matchEnum) run(mt *match.Match) {
	e.reset(mt)
	for !e.stopped && e.next() {
		a := e.a
		// Availability pruning: every motif edge must be able to reach the
		// admission threshold using all of its in-window events.
		bound := math.Inf(1)
		if e.prune {
			bound = e.flowRange(0, a, e.ub[0])
			feasible := e.pass(bound)
			for j := 1; feasible && j < e.m; j++ {
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
	if !e.visit(e.view(), bound) {
		e.stopped = true
	}
}
