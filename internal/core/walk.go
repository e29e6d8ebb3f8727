package core

import (
	"math"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// WalkTarget is one shape's part in a phase-P1 walk: the structural
// matches of Motif that can carry an instance of duration at most Delta
// whose first event lies in [AnchorLo, AnchorHi] go to Visit, in the
// deterministic DFS order (start node ascending, out-arcs ascending per
// step). The Match is reused between calls, as with match.Visitor.
type WalkTarget struct {
	Motif              *motif.Motif
	Delta              int64
	AnchorLo, AnchorHi int64
	Visit              match.Visitor
}

// WalkMatches is phase P1 (DESIGN.md §3): one depth-first walk over g
// that serves every target at once.
//
// The walk is temporally pruned. While it extends a spanning path it
// maintains, for the arcs chosen so far, the earliest anchor — an event of
// the first arc — from which a strictly increasing chain of events, one per
// arc, fits inside a duration-δ window, and it abandons a subtree as soon
// as no anchor admits such a chain. Every instance contains a
// time-respecting chain starting at its window anchor, so the condition is
// necessary for any instance over any completion of the prefix.
//
// It is band-anchored. Anchors are taken from [AnchorLo, AnchorHi] only: a
// first arc with no event in the range is rejected on sight, and the
// anchor never advances past AnchorHi. An instance anchored in the range
// has its first event there (DESIGN.md §7, boundary fact 1), so phase P2
// restricted to the same range finds in the surviving matches exactly what
// it finds in all of them.
//
// It shares prefixes. Motif paths are canonical (vertices labelled in
// first-appearance order), so equal prefixes are equal int slices and the
// targets' paths form a trie. The walk descends the trie carrying the one
// anchored-chain state all targets below a node share, and prunes each
// node at the largest δ and the hull of the anchor ranges beneath it — a
// superset condition for every one of them. Where a target's own (δ,
// range) is narrower than its end node's, the match is re-checked against
// it before delivery, so each target receives exactly the sequence a walk
// for it alone produces.
//
// A Visit returning false stops the whole walk.
func WalkMatches(g *temporal.Graph, targets []WalkTarget) error {
	for i := range targets {
		if err := (Params{Delta: targets[i].Delta}).validate(); err != nil {
			return err
		}
	}
	newWalker(g, targets).run()
	return nil
}

// walkSource is the one-target walk as a matchSource: what Enumerate,
// EnumerateRange, TopK and the DP module stream into phase P2. Its units
// are start nodes, each walked by a one-path trie.
func walkSource(g *temporal.Graph, mo *motif.Motif, delta, anchorLo, anchorHi int64) matchSource {
	return matchSource{units: g.NumNodes(), bind: func(fn match.Visitor) func(int) bool {
		w := newWalker(g, []WalkTarget{{Motif: mo, Delta: delta, AnchorLo: anchorLo, AnchorHi: anchorHi, Visit: fn}})
		return func(u int) bool { return w.from(temporal.NodeID(u)) }
	}}
}

// fullWalk is walkSource over every anchor: the whole-graph searches.
func fullWalk(g *temporal.Graph, mo *motif.Motif, delta int64) matchSource {
	return walkSource(g, mo, delta, math.MinInt64, math.MaxInt64)
}

// band is the temporal condition a walk prunes at: chains of duration at
// most delta anchored in [lo, hi].
type band struct {
	delta, lo, hi int64
}

// trieNode is one spanning-path prefix shared by the targets beneath it.
type trieNode struct {
	tv    int  // motif vertex the node's edge enters
	fresh bool // first appearance of tv: the edge binds a new graph node
	band       // largest δ and anchor hull of the targets at or below
	kids  []*trieNode
	ends  []walkEnd // targets whose path ends here
}

type walkEnd struct {
	band
	visit match.Visitor
}

// kid returns the child entering motif vertex tv, widened to cover b.
func (n *trieNode) kid(tv int, fresh bool, b band) *trieNode {
	for _, k := range n.kids {
		if k.tv == tv {
			k.delta = max(k.delta, b.delta)
			k.lo = min(k.lo, b.lo)
			k.hi = max(k.hi, b.hi)
			return k
		}
	}
	k := &trieNode{tv: tv, fresh: fresh, band: b}
	n.kids = append(n.kids, k)
	return k
}

// walker is the state of one walk; depth d counts the edges chosen.
type walker struct {
	g    *temporal.Graph
	root trieNode
	bind []temporal.NodeID // graph node per motif vertex; labels < nb are bound
	nb   int
	arcs []int
	m    match.Match // delivery view over bind and arcs

	series [][]temporal.Point // series of the arcs chosen so far
	chainT []int64            // greedy chain time after each chosen edge
	anchor int                // current anchor position in series[0]
	savedA []int              // per-depth anchor snapshots
	savedT [][]int64          // per-depth chain snapshots
}

func newWalker(g *temporal.Graph, targets []WalkTarget) *walker {
	w := &walker{g: g}
	edges := 0
	for i := range targets {
		t := &targets[i]
		if t.AnchorLo > t.AnchorHi {
			continue // empty range: nothing to deliver
		}
		b := band{delta: t.Delta, lo: t.AnchorLo, hi: t.AnchorHi}
		n, nb := &w.root, 1
		for _, tv := range t.Motif.Path()[1:] {
			n = n.kid(tv, tv == nb, b)
			if tv == nb {
				nb++
			}
		}
		n.ends = append(n.ends, walkEnd{band: b, visit: t.Visit})
		edges = max(edges, t.Motif.NumEdges())
	}
	w.bind = make([]temporal.NodeID, edges+1)
	w.arcs = make([]int, edges)
	w.series = make([][]temporal.Point, edges)
	w.chainT = make([]int64, edges)
	w.savedA = make([]int, edges+1)
	w.savedT = make([][]int64, edges+1)
	for d := range w.savedT {
		w.savedT[d] = make([]int64, d)
	}
	return w
}

func (w *walker) run() {
	if len(w.root.kids) == 0 {
		return // no target with a non-empty range
	}
	for u := temporal.NodeID(0); int(u) < w.g.NumNodes(); u++ {
		if !w.from(u) {
			return
		}
	}
}

// from walks the matches rooted at one start node (the unit of a
// walkSource). It returns false if a visitor stopped the walk.
func (w *walker) from(start temporal.NodeID) bool {
	w.bind[0] = start
	w.nb = 1
	return w.extend(&w.root, 0, start)
}

// extend delivers the match of the d edges chosen so far to the targets
// ending at n, then tries every way of choosing one more edge out of cur
// along n's children. It returns false if a visitor stopped the walk.
//
//flowmotif:hotpath
func (w *walker) extend(n *trieNode, d int, cur temporal.NodeID) bool {
	// Snapshot the anchored-chain state: a feasibility check may advance
	// the anchor, which must not leak to the next check made from here.
	w.savedA[d] = w.anchor
	copy(w.savedT[d], w.chainT)

	if len(n.ends) > 0 {
		w.m.Nodes, w.m.Arcs = w.bind[:w.nb], w.arcs[:d]
		for i := range n.ends {
			e := &n.ends[i]
			if e.band != n.band {
				// The node was reached under the hull of everything
				// beneath it; this target's own walk comes here only if an
				// anchor of its own range chains through within its own δ.
				w.restore(d)
				if !w.chase(e.band, d+1, w.seat(e.lo)) {
					continue
				}
			}
			if !e.visit(&w.m) {
				return false
			}
		}
	}
	for _, k := range n.kids {
		if !k.fresh {
			// Revisited motif vertex: the target graph node is fixed.
			to := w.bind[k.tv]
			arc, ok := w.g.FindArc(cur, to)
			if !ok {
				continue
			}
			w.restore(d)
			if !w.feasible(k, d+1, arc) {
				continue
			}
			w.arcs[d] = arc
			if !w.extend(k, d+1, to) {
				return false
			}
			continue
		}
		lo, hi := w.g.OutArcs(cur)
		for a := lo; a < hi; a++ {
			to := w.g.ArcTarget(a)
			if w.used(to) {
				continue // injective vertex binding (Definition 3.2)
			}
			w.restore(d)
			if !w.feasible(k, d+1, a) {
				continue
			}
			w.bind[w.nb] = to
			w.nb++
			w.arcs[d] = a
			ok := w.extend(k, d+1, to)
			w.nb--
			if !ok {
				return false
			}
		}
	}
	return true
}

// restore returns to the state extend saved at depth d. The anchor only
// moves forward and the chain is rewritten only when it moves, so an
// unmoved anchor means an untouched chain.
func (w *walker) restore(d int) {
	if w.anchor != w.savedA[d] {
		w.anchor = w.savedA[d]
		copy(w.chainT, w.savedT[d])
	}
}

// feasible extends the anchored greedy chain through arc as edge d-1 under
// k's band, advancing the anchor (and re-chasing the prefix) when the
// chain overflows the δ window. It returns false when no anchor of the
// band admits a chain.
func (w *walker) feasible(k *trieNode, d int, arc int) bool {
	s := w.g.Series(arc)
	w.series[d-1] = s
	if d == 1 {
		// Seat the anchor at the arc's first event inside the band.
		i := 0
		if s[0].T < k.lo {
			i = firstAtOrAfter(s, k.lo)
		}
		if i == len(s) || s[i].T > k.hi {
			return false
		}
		w.anchor = i
		w.chainT[0] = s[i].T
		return true
	}
	s0 := w.series[0]
	// The parent's band is no narrower than k's: the anchor it left may sit
	// before k's range (re-seat it) or beyond (no earlier one fits either).
	if at := s0[w.anchor].T; at < k.lo {
		if !w.chase(k.band, d, w.seat(k.lo)) {
			return false
		}
	} else if at > k.hi {
		return false
	}
	for {
		idx := firstAfter(s, w.chainT[d-2])
		if idx == len(s) {
			// No event of this arc after the chain at all; later anchors
			// only push the chain further right.
			return false
		}
		t := s[idx].T
		if t <= temporal.SatAdd(s0[w.anchor].T, k.delta) {
			w.chainT[d-1] = t
			return true
		}
		// Window overflow: advance the anchor and re-chase the prefix.
		if !w.chase(k.band, d, w.anchor+1) {
			return false
		}
	}
}

// seat returns the first anchor position at or after the current one whose
// time is at least lo.
func (w *walker) seat(lo int64) int {
	s0 := w.series[0]
	if s0[w.anchor].T >= lo {
		return w.anchor
	}
	return w.anchor + firstAtOrAfter(s0[w.anchor:], lo)
}

// chase moves the anchor to the first position at or after from, inside
// b's range, whose greedy chain through edges 0..d-2 fits in b's δ
// window, rebuilding chainT. It returns false when the anchors are
// exhausted or some prefix arc has no event left.
func (w *walker) chase(b band, d int, from int) bool {
	s0 := w.series[0]
anchors:
	for a := from; a < len(s0); a++ {
		at := s0[a].T
		if at > b.hi {
			return false
		}
		w.anchor = a
		w.chainT[0] = at
		end := temporal.SatAdd(at, b.delta)
		t := at
		for i := 1; i < d-1; i++ {
			si := w.series[i]
			j := firstAfter(si, t)
			if j == len(si) {
				return false // no event after t on a prefix arc: hopeless
			}
			t = si[j].T
			if t > end {
				continue anchors // this anchor's window overflows already
			}
			w.chainT[i] = t
		}
		return true
	}
	return false
}

func (w *walker) used(to temporal.NodeID) bool {
	for _, have := range w.bind[:w.nb] {
		if have == to {
			return true
		}
	}
	return false
}

// firstAfter returns the first index of s with T > t (len(s) if none).
func firstAfter(s []temporal.Point, t int64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].T > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// firstAtOrAfter returns the first index of s with T >= t (len(s) if none).
func firstAtOrAfter(s []temporal.Point, t int64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].T >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MatchSlab collects the matches of one walk target in two flat arrays, so
// a caller that walks repeatedly (the streaming planner, once per finalize
// round) reuses the storage instead of cloning every match.
type MatchSlab struct {
	nodes      []temporal.NodeID
	arcs       []int
	numV, numE int // per match; all matches of a slab belong to one motif
	list       []match.Match
}

// Reset empties the slab, keeping its storage.
func (s *MatchSlab) Reset() {
	s.nodes, s.arcs = s.nodes[:0], s.arcs[:0]
}

// Add appends a copy of m; it is a match.Visitor.
func (s *MatchSlab) Add(m *match.Match) bool {
	s.numV, s.numE = len(m.Nodes), len(m.Arcs)
	s.nodes = append(s.nodes, m.Nodes...)
	s.arcs = append(s.arcs, m.Arcs...)
	return true
}

// Len returns the number of matches added since the last Reset.
func (s *MatchSlab) Len() int {
	if len(s.arcs) == 0 {
		return 0
	}
	return len(s.arcs) / s.numE
}

// Matches returns the collected matches in the order added. The list and
// everything it points to are valid until the next Reset.
func (s *MatchSlab) Matches() []match.Match {
	s.list = s.list[:0]
	for i, n := 0, s.Len(); i < n; i++ {
		s.list = append(s.list, match.Match{
			Nodes: s.nodes[i*s.numV : (i+1)*s.numV : (i+1)*s.numV],
			Arcs:  s.arcs[i*s.numE : (i+1)*s.numE : (i+1)*s.numE],
		})
	}
	return s.list
}
