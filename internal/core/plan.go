package core

// This file holds the shared-evaluation entry points for the streaming
// planner (internal/stream, DESIGN.md §11): phase P1 is one walk per
// finalize round (WalkMatches, walk.go) and each shape's match list is
// fanned out to many phase-P2 enumerations with per-subscription (δ, φ,
// anchor band) parameters.

import (
	"errors"
	"sort"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// CollectMatches materializes the structural matches of mo in g that
// survive temporal-feasibility pruning at duration delta, over every
// anchor (WalkMatches with one target and the full range). A match is kept
// iff some anchored strictly increasing event chain fits inside a delta
// window — a necessary condition for any instance under any δ' <= delta —
// so a list collected at the largest δ of a shape's plan groups serves
// every group of that shape: EnumerateMatchesRange with a smaller Delta
// over the list yields exactly what a fresh search at that Delta would.
func CollectMatches(g *temporal.Graph, mo *motif.Motif, delta int64) ([]match.Match, error) {
	if err := (Params{Delta: delta}).validate(); err != nil {
		return nil, err
	}
	var slab MatchSlab
	fullWalk(g, mo, delta).each(slab.Add)
	return slab.Matches(), nil
}

// EnumerateMatchesRange runs phase P2 over a pre-collected match list with
// window anchors restricted to [anchorLo, anchorHi] (see EnumerateRange
// for the band semantics). With p.Workers > 1 the matches are sharded over
// that many goroutines and visit must be safe for concurrent use. It is
// SweepMatchesRange with the single threshold p.Phi.
func EnumerateMatchesRange(g *temporal.Graph, mo *motif.Motif, matches []match.Match, p Params, anchorLo, anchorHi int64, visit Visitor) (EnumStats, error) {
	return search(g, mo, p, nil, sliceSource(matches), anchorLo, anchorHi, plain(visit))
}

// SweepVisitor receives each instance of a threshold sweep with admitted,
// the number of leading thresholds (>= 1) whose own search would report it.
// Unlike a Visitor's, the instance is borrowed: it is read-only and valid
// only until the visitor returns, so the sweep allocates nothing per
// instance and a visitor that keeps one keeps a Clone.
type SweepVisitor func(in *Instance, admitted int) bool

// SweepMatchesRange is the fan-out half of the shared-evaluation planner:
// one phase-P2 run over a CollectMatches list that answers, for every φ in
// phis (ascending, at least one; p.Phi is ignored) at once, what
// EnumerateMatchesRange would report at that φ. Algorithm 1 consults φ
// only to reject edge-sets — forced splits, the window-skip rule and δ
// never see it — so the searches are nested: the run at phis[0] visits
// every instance, and the instance belongs to the search at φ iff every
// flow the walk compared on the way to it reaches φ. admitted counts those
// searches from the very values compared (not from Instance.Flow summed
// again afterwards), so the per-φ sets are bit-identical to len(phis)
// separate runs over g even for an edge-set within an ulp of a threshold.
func SweepMatchesRange(g *temporal.Graph, mo *motif.Motif, matches []match.Match, p Params, phis []float64, anchorLo, anchorHi int64, visit SweepVisitor) (EnumStats, error) {
	if len(phis) == 0 || !sort.Float64sAreSorted(phis) {
		return EnumStats{}, errors.New("core: sweep thresholds must be non-empty and ascending")
	}
	p.Phi = phis[0]
	var bv boundVisitor
	if visit != nil {
		bv = func(in *Instance, bound float64) bool {
			n := 1
			for n < len(phis) && phis[n] <= bound {
				n++
			}
			return visit(in, n)
		}
	}
	return search(g, mo, p, nil, sliceSource(matches), anchorLo, anchorHi, bv)
}
