package core

import (
	"fmt"
	"sort"
	"strings"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// allMatches collects every structural match of mo in g.
func allMatches(g *temporal.Graph, mo *motif.Motif) []match.Match {
	var out []match.Match
	match.Stream(g, mo, func(m *match.Match) bool {
		out = append(out, m.Clone())
		return true
	})
	return out
}

// oracleEnumerate is a brute-force reference implementation working straight
// from Definitions 3.2/3.3: it enumerates every combination of contiguous
// per-edge spans over every structural match, keeps the valid ones (strict
// ordering, duration, per-edge flow), and filters to maximal instances.
// Maximal instances necessarily have contiguous edge-sets (a skipped middle
// event is always addable), so restricting to contiguous spans loses
// nothing. Exponential; only for tiny test graphs.
func oracleEnumerate(g *temporal.Graph, mo *motif.Motif, delta int64, phi float64) []*Instance {
	var out []*Instance
	m := mo.NumEdges()
	for _, mt := range allMatches(g, mo) {
		series := make([][]temporal.Point, m)
		for i := 0; i < m; i++ {
			series[i] = g.Series(mt.Arcs[i])
		}
		spans := make([]Span, m)
		var rec func(level int)
		rec = func(level int) {
			if level == m {
				in := buildOracleInstance(g, mo, mt, spans)
				if Validate(g, mo, delta, phi, in) != nil {
					return
				}
				if ok, _ := IsMaximal(g, mo, delta, in); !ok {
					return
				}
				out = append(out, in)
				return
			}
			s := series[level]
			for st := 0; st < len(s); st++ {
				// Ordering prune: this edge-set must start strictly after
				// the previous edge-set's last event.
				if level > 0 {
					prev := series[level-1]
					if s[st].T <= prev[spans[level-1].End-1].T {
						continue
					}
				}
				for en := st + 1; en <= len(s); en++ {
					// Duration prune: span from the first edge-set start.
					if s[en-1].T-series[0][spans[0].Start].T > delta && level > 0 {
						break
					}
					if level == 0 && s[en-1].T-s[st].T > delta {
						break
					}
					spans[level] = Span{Start: int32(st), End: int32(en)}
					rec(level + 1)
				}
			}
		}
		rec(0)
	}
	return out
}

func buildOracleInstance(g *temporal.Graph, mo *motif.Motif, mt match.Match, spans []Span) *Instance {
	m := mo.NumEdges()
	in := &Instance{
		Nodes:     append([]temporal.NodeID(nil), mt.Nodes...),
		Arcs:      append([]int(nil), mt.Arcs...),
		Spans:     append([]Span(nil), spans...),
		EdgeFlows: make([]float64, m),
	}
	minFlow := 0.0
	for i := 0; i < m; i++ {
		f := g.FlowRange(mt.Arcs[i], int(spans[i].Start), int(spans[i].End))
		in.EdgeFlows[i] = f
		if i == 0 || f < minFlow {
			minFlow = f
		}
	}
	in.Flow = minFlow
	in.Start = g.Series(mt.Arcs[0])[spans[0].Start].T
	in.End = g.Series(mt.Arcs[m-1])[spans[m-1].End-1].T
	return in
}

// instanceKey is a canonical serialization for set comparison.
func instanceKey(in *Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%v a=%v s=", in.Nodes, in.Arcs)
	for _, sp := range in.Spans {
		fmt.Fprintf(&b, "[%d,%d)", sp.Start, sp.End)
	}
	return b.String()
}

func instanceKeySet(ins []*Instance) []string {
	keys := make([]string, len(ins))
	for i, in := range ins {
		keys[i] = instanceKey(in)
	}
	sort.Strings(keys)
	return keys
}

func keySetsEqual(a, b []string) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return false, fmt.Sprintf("first difference at %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	return true, ""
}
