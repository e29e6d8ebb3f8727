package core

import (
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// EnumerateRange is Enumerate restricted to instances anchored within the
// inclusive timestamp range [anchorLo, anchorHi]: it streams exactly the
// subset of Enumerate's maximal instances whose Start (the timestamp of the
// instance's first event, which anchors its δ-window) lies in the range.
//
// This is the incremental entry point of the streaming subsystem
// (internal/stream). Because an instance anchored at ts is confined to
// [ts, ts+δ], and the window-skip maximality rule only consults same-arc
// anchors within δ before ts, EnumerateRange over a graph holding only the
// events of [anchorLo-δ, anchorHi+δ] produces the same instances as over
// the full graph — so a stream engine can finalize one watermark band at a
// time against a bounded retention window. See DESIGN.md §7.
func EnumerateRange(g *temporal.Graph, mo *motif.Motif, p Params, anchorLo, anchorHi int64, visit Visitor) (EnumStats, error) {
	return search(g, mo, p, nil, walkSource(g, mo, p.Delta, anchorLo, anchorHi), anchorLo, anchorHi, plain(visit))
}

// CollectRange materializes the instances EnumerateRange streams.
func CollectRange(g *temporal.Graph, mo *motif.Motif, p Params, anchorLo, anchorHi int64) ([]*Instance, error) {
	var out []*Instance
	_, err := EnumerateRange(g, mo, p, anchorLo, anchorHi, func(in *Instance) bool {
		out = append(out, in)
		return true
	})
	return out, err
}

// windowScan finds the maximal δ-windows of a structural match: the outer
// loop of Algorithm 1, which the enumerator (matchEnum: Algorithm 1, plain
// and top-k) and the DP module (dpRunner: Algorithm 2) both run on. Windows
// are anchored at the events of the first motif edge's series; next yields,
// in anchor order, each window that holds a final-edge event after its
// anchor and survives the maximality skip rule, and the caller evaluates
// it from a, lb and ub.
type windowScan struct {
	g     *temporal.Graph
	delta int64
	// Anchor-time restriction: only windows anchored at timestamps within
	// [anchorLo, anchorHi] are yielded. The full int64 range is the
	// whole-graph search; EnumerateRange narrows it so the streaming
	// subsystem can finalize one watermark band at a time.
	anchorLo, anchorHi int64
	stats              EnumStats // Anchors and WindowsSkipped are counted here

	m      int // number of motif edges
	series [][]temporal.Point
	arcs   []int
	nodes  []temporal.NodeID
	spans  []Span   // edge-set per motif edge, set by the caller; see view
	cur    Instance // view's storage
	lastT  int64    // time of the final edge's last event

	// The current window: its anchor a (an index into series[0]) and, per
	// edge, its bounds, which are monotone in the anchor and so advance
	// amortized O(1) per anchor.
	a  int
	lb []int // first index with T > anchor time (edges 1..m-1)
	ub []int // first index with T > window end
}

func newWindowScan(g *temporal.Graph, mo *motif.Motif, delta, anchorLo, anchorHi int64) windowScan {
	m := mo.NumEdges()
	bounds := make([]int, 2*m) // lb and ub: one allocation per search worker
	return windowScan{
		g:        g,
		delta:    delta,
		anchorLo: anchorLo,
		anchorHi: anchorHi,
		m:        m,
		series:   make([][]temporal.Point, m),
		spans:    make([]Span, m),
		lb:       bounds[:m:m],
		ub:       bounds[m:],
	}
}

// reset starts the scan of one structural match.
func (w *windowScan) reset(mt *match.Match) {
	m := w.m
	for i := 0; i < m; i++ {
		w.series[i] = w.g.Series(mt.Arcs[i])
		w.lb[i] = 0
		w.ub[i] = 0
	}
	w.arcs = mt.Arcs
	w.nodes = mt.Nodes

	s0 := w.series[0]
	last := w.series[m-1]
	w.lastT = last[len(last)-1].T
	w.a = len(s0) // no window, unless the checks below find a first anchor

	// Fast feasibility reject: chase the minimal strictly-increasing chain
	// of event times through the series. Most structural matches admit no
	// time-respecting assignment at all; this check costs O(m log n)
	// instead of a full anchor scan.
	aStart := 0
	if m > 1 {
		tprev := s0[0].T
		for _, s := range w.series[1:] {
			idx := firstAfter(s, tprev)
			if idx == len(s) {
				return
			}
			tprev = s[idx].T
		}
		// Windows ending before the chain's minimal completion time are
		// dead; jump straight to the first anchor that can reach it
		// (anchor+δ >= tprev, saturating at both int64 ends).
		aStart = firstAtOrAfter(s0, temporal.SatSub(tprev, w.delta))
	}
	if aStart < len(s0) && w.anchorLo > s0[aStart].T {
		// Anchor-range restriction: jump to the first in-range anchor. The
		// window-skip rule in next still sees pre-range predecessors (s0 is
		// the full series), so maximality decisions are unchanged.
		aStart = firstAtOrAfter(s0, w.anchorLo)
	}
	w.a = aStart - 1
}

// next advances to the next window the scan yields, leaving its anchor in
// a and its bounds in lb and ub. It returns false when the match has no
// window left.
func (w *windowScan) next() bool {
	m := w.m
	s0 := w.series[0]
	last := w.series[m-1]
	for w.a++; w.a < len(s0); w.a++ {
		a := w.a
		ts := s0[a].T
		if ts > w.anchorHi {
			return false // past the anchor range
		}
		if m > 1 && ts >= w.lastT {
			return false // no final-edge event can follow this anchor
		}
		te := temporal.SatAdd(ts, w.delta)
		w.stats.Anchors++

		// Advance the monotone window bounds.
		for j := 1; j < m; j++ {
			s := w.series[j]
			for w.lb[j] < len(s) && s[w.lb[j]].T <= ts {
				w.lb[j]++
			}
		}
		for j := 0; j < m; j++ {
			s := w.series[j]
			for w.ub[j] < len(s) && s[w.ub[j]].T <= te {
				w.ub[j]++
			}
		}

		// The final edge needs at least one in-window event...
		lbLast := w.lb[m-1]
		if m == 1 {
			lbLast = a
		}
		if w.ub[m-1] <= lbLast {
			continue
		}
		// ...and, for maximality, one beyond the previous anchor's reach
		// (window skip rule): otherwise every combo of this window extends
		// backwards with the previous first-edge event, and any instance
		// here has a superset (with at least its flow) in an earlier window.
		if a > 0 && last[w.ub[m-1]-1].T <= temporal.SatAdd(s0[a-1].T, w.delta) {
			w.stats.WindowsSkipped++
			continue
		}
		return true
	}
	return false
}

// flowRange returns the aggregated flow of series[edge][i:j].
func (w *windowScan) flowRange(edge, i, j int) float64 {
	return w.g.FlowRange(w.arcs[edge], i, j)
}

// view is the one span → Instance builder: it returns the Instance that
// spans denote on the current match, borrowed. Nodes, Arcs and Spans alias
// the scan's own state, EdgeFlows is the scan's scratch, and the next view
// overwrites all of it, so a caller that keeps the instance keeps a Clone.
func (w *windowScan) view() *Instance {
	m := w.m
	in := &w.cur
	in.Nodes, in.Arcs, in.Spans = w.nodes, w.arcs, w.spans
	if in.EdgeFlows == nil {
		in.EdgeFlows = make([]float64, m)
	}
	minFlow := 0.0
	for i := 0; i < m; i++ {
		f := w.flowRange(i, int(w.spans[i].Start), int(w.spans[i].End))
		in.EdgeFlows[i] = f
		if i == 0 || f < minFlow {
			minFlow = f
		}
	}
	in.Flow = minFlow
	in.Start = w.series[0][w.spans[0].Start].T
	in.End = w.series[m-1][w.spans[m-1].End-1].T
	return in
}
