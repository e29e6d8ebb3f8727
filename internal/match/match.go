// Package match implements phase P1 of the flow-motif search (Kosyfaki et
// al., EDBT 2019, §4): finding all structural matches of a motif graph GM in
// the time-series graph GT, disregarding edge labels and the δ/φ thresholds.
//
// Because a motif's ordered edges form a spanning path, matching is a
// modified depth-first search along the path: at each step the walk either
// binds a fresh graph node to a fresh motif vertex (iterating over the
// current node's out-arcs, skipping nodes already bound to keep the vertex
// mapping injective) or, when the path revisits a motif vertex, checks that
// the required arc back to the already-bound node exists.
//
// Matches are streamed through callbacks; the caller decides whether to
// count, collect, or pipe them straight into phase P2.
package match

import (
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// Match is one structural match Gs of a motif in the graph: an injective
// binding of motif vertices to graph nodes plus, per motif edge, the graph
// arc carrying the corresponding interaction time series R(e_i).
type Match struct {
	Nodes []temporal.NodeID // graph node per motif vertex (canonical labels)
	Arcs  []int             // graph arc per motif edge
}

// Clone returns a deep copy of m (Stream reuses the callback argument).
func (m *Match) Clone() Match {
	return Match{
		Nodes: append([]temporal.NodeID(nil), m.Nodes...),
		Arcs:  append([]int(nil), m.Arcs...),
	}
}

// Visitor receives structural matches. The Match is reused between calls;
// Clone it to retain. Returning false stops the enumeration.
type Visitor func(*Match) bool

// Stream enumerates all structural matches of mo in g, in deterministic
// DFS order (start node ascending, out-neighbours ascending per step). It
// returns the number of matches visited.
func Stream(g *temporal.Graph, mo *motif.Motif, fn Visitor) int64 {
	var count int64
	d := newDFS(g, mo)
	for u := temporal.NodeID(0); int(u) < g.NumNodes(); u++ {
		if !d.from(u, func(m *Match) bool {
			count++
			return fn(m)
		}) {
			break
		}
	}
	return count
}

// Count returns the number of structural matches of mo in g.
func Count(g *temporal.Graph, mo *motif.Motif) int64 {
	return Stream(g, mo, func(*Match) bool { return true })
}

// Collect materializes up to limit matches (limit <= 0 means no limit).
func Collect(g *temporal.Graph, mo *motif.Motif, limit int) []Match {
	var out []Match
	Stream(g, mo, func(m *Match) bool {
		out = append(out, m.Clone())
		return limit <= 0 || len(out) < limit
	})
	return out
}

// dfs holds per-walk scratch state so Stream allocates once per traversal.
type dfs struct {
	g     *temporal.Graph
	path  []int
	numV  int
	bind  []temporal.NodeID
	bound []bool
	m     Match
}

func newDFS(g *temporal.Graph, mo *motif.Motif) *dfs {
	numV := mo.NumVertices()
	return &dfs{
		g:     g,
		path:  mo.Path(),
		numV:  numV,
		bind:  make([]temporal.NodeID, numV),
		bound: make([]bool, numV),
		m: Match{
			Nodes: make([]temporal.NodeID, numV),
			Arcs:  make([]int, len(mo.Path())-1),
		},
	}
}

// from runs the DFS with motif vertex path[0] bound to start. Returns false
// if the visitor aborted.
func (d *dfs) from(start temporal.NodeID, fn Visitor) bool {
	d.bind[d.path[0]] = start
	d.bound[d.path[0]] = true
	ok := d.extend(1, start, fn)
	d.bound[d.path[0]] = false
	return ok
}

// extend tries to bind motif vertex path[pos], walking from graph node cur
// (the binding of path[pos-1]). Returns false if the visitor aborted.
func (d *dfs) extend(pos int, cur temporal.NodeID, fn Visitor) bool {
	if pos == len(d.path) {
		copy(d.m.Nodes, d.bind)
		return fn(&d.m)
	}
	tv := d.path[pos]
	if d.bound[tv] {
		// Revisited motif vertex: the target graph node is fixed; the walk
		// continues only if the required arc exists.
		w := d.bind[tv]
		arc, ok := d.g.FindArc(cur, w)
		if !ok {
			return true
		}
		d.m.Arcs[pos-1] = arc
		return d.extend(pos+1, w, fn)
	}
	lo, hi := d.g.OutArcs(cur)
	for a := lo; a < hi; a++ {
		w := d.g.ArcTarget(a)
		if d.usedNode(w) {
			continue // injective vertex binding (Definition 3.2 bijection)
		}
		d.bind[tv] = w
		d.bound[tv] = true
		d.m.Arcs[pos-1] = a
		ok := d.extend(pos+1, w, fn)
		d.bound[tv] = false
		if !ok {
			return false
		}
	}
	return true
}

func (d *dfs) usedNode(w temporal.NodeID) bool {
	for v := 0; v < d.numV; v++ {
		if d.bound[v] && d.bind[v] == w {
			return true
		}
	}
	return false
}
