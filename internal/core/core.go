// Package core implements the paper's primary contribution: enumeration of
// maximal flow-motif instances in a temporal interaction network (Kosyfaki
// et al., EDBT 2019, §4–5).
//
// The search runs in two phases. Phase P1 (walk.go) finds the structural
// matches of the motif graph that can carry an instance, in one temporally
// pruned, band-anchored walk (DESIGN.md §3); package match keeps the pure
// structural DFS for the paper's Table 4 match counts and the per-match and
// per-window DP reports. Phase P2 — Algorithm 1 of the paper, implemented
// here — slides maximal duration-δ windows over each match's interaction
// time series and enumerates every combination of contiguous edge-sets
// that forms a *maximal* instance satisfying the per-edge-set minimum-flow
// threshold φ.
//
// Key invariants that make the enumeration exact (see DESIGN.md §2):
//
//   - windows are anchored at the event times of the first motif edge's
//     series; every instance produced at a window contains the anchor event
//     and the temporally last in-window event of the final motif edge;
//   - a window is skipped when it contains no final-edge event beyond the
//     previous anchor's reach (such combos extend backwards, so they are
//     non-maximal duplicates);
//   - an edge-set may end at event p only if the split is "forced": p is
//     the last in-window event of its series, or the next-level series has
//     an event no later than the series' following event;
//   - edge-sets whose aggregated flow cannot reach φ prune their whole
//     subtree (Algorithm 1, line 16), and a sub-window whose remaining
//     series cannot reach φ is abandoned immediately.
//
// The first two are the window scan's (window.go), the one place that
// decides which windows of a match are evaluated. Algorithm 1 — plain, and
// top-k with a floating threshold (§5) — and the dynamic-programming top-1
// module (§5.1, Algorithm 2, dp.go) are two evaluations of the windows it
// yields.
package core

import (
	"errors"
	"fmt"

	"flowmotif/internal/match"
	"flowmotif/internal/temporal"
)

// Params carries the search thresholds of Definition 3.1 plus execution
// options.
type Params struct {
	// Delta is the motif duration constraint δ: the maximum time difference
	// between any two events of an instance. Must be non-negative.
	Delta int64
	// Phi is the motif flow constraint φ: the minimum aggregated flow of
	// every edge-set. Must be non-negative.
	Phi float64
	// Workers sets the parallelism of the search over structural matches.
	// Values <= 1 run serially (deterministic instance order); larger
	// values shard matches over that many goroutines, in which case
	// visitors must be safe for concurrent use.
	Workers int
	// DisableAvailPrune turns off the flow-availability pruning (an
	// optimization beyond the paper's Algorithm 1) for ablation studies.
	// Results are identical either way.
	DisableAvailPrune bool
}

func (p Params) validate() error {
	if p.Delta < 0 {
		return errors.New("core: Delta must be non-negative")
	}
	if p.Phi < 0 {
		return errors.New("core: Phi must be non-negative")
	}
	return nil
}

// Span is a half-open index range [Start, End) into a graph arc's
// interaction time series; it denotes the contiguous edge-set assigned to
// one motif edge.
type Span struct {
	Start, End int32
}

// Instance is one maximal flow-motif instance GI (Definition 3.2/3.3).
type Instance struct {
	Nodes     []temporal.NodeID // graph node per motif vertex
	Arcs      []int             // graph arc per motif edge
	Spans     []Span            // edge-set per motif edge, into Series(Arcs[i])
	EdgeFlows []float64         // aggregated flow per edge-set
	Flow      float64           // instance flow: min over EdgeFlows (Equation 1)
	Start     int64             // earliest event timestamp in the instance
	End       int64             // latest event timestamp in the instance
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	return &Instance{
		Nodes:     append([]temporal.NodeID(nil), in.Nodes...),
		Arcs:      append([]int(nil), in.Arcs...),
		Spans:     append([]Span(nil), in.Spans...),
		EdgeFlows: append([]float64(nil), in.EdgeFlows...),
		Flow:      in.Flow,
		Start:     in.Start,
		End:       in.End,
	}
}

// String summarizes the instance.
func (in *Instance) String() string {
	return fmt.Sprintf("Instance{nodes=%v flow=%.4g span=[%d,%d]}", in.Nodes, in.Flow, in.Start, in.End)
}

// Visitor receives enumerated instances. Instances are freshly allocated
// and may be retained. Returning false stops the enumeration.
type Visitor func(*Instance) bool

// EnumStats counts the work done by one enumeration run.
type EnumStats struct {
	Matches          int64 // structural matches processed (phase P1 output)
	Anchors          int64 // candidate window positions examined
	WindowsProcessed int64 // windows that entered FindInstances
	WindowsSkipped   int64 // windows rejected by the maximality skip rule
	SplitsTried      int64 // prefix splits considered
	PhiPruned        int64 // splits rejected by the φ check (Alg. 1 line 16)
	AvailPruned      int64 // sub-windows abandoned by availability pruning
	Instances        int64 // maximal instances emitted
}

func (s *EnumStats) add(o *EnumStats) {
	s.Matches += o.Matches
	s.Anchors += o.Anchors
	s.WindowsProcessed += o.WindowsProcessed
	s.WindowsSkipped += o.WindowsSkipped
	s.SplitsTried += o.SplitsTried
	s.PhiPruned += o.PhiPruned
	s.AvailPruned += o.AvailPruned
	s.Instances += o.Instances
}

// matchSource is where a search's structural matches come from — the
// temporally pruned phase-P1 walk (walkSource) or a pre-collected slice
// (sliceSource) — split into units: start nodes for a walk, indices for a
// slice. bind returns one worker's unit function, which delivers the
// matches of unit u to fn and returns false if fn stopped.
type matchSource struct {
	units int
	bind  func(fn match.Visitor) func(u int) bool
}

// each delivers every match to fn in unit order until fn returns false.
func (s matchSource) each(fn match.Visitor) {
	unit := s.bind(fn)
	for u := 0; u < s.units; u++ {
		if !unit(u) {
			return
		}
	}
}

func sliceSource(matches []match.Match) matchSource {
	return matchSource{units: len(matches), bind: func(fn match.Visitor) func(int) bool {
		return func(i int) bool { return fn(&matches[i]) }
	}}
}
