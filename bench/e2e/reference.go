package main

import (
	"math"
	"sort"
	"sync"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// subRef is what the reference expects of one subscription (serving
// workloads) or one search (batch_paper): how many maximal instances,
// and the best flows, best first.
type subRef struct {
	Detections int64
	Top        []float64
}

// reference is the expected output of one run, keyed by subscription or
// search id.
type reference struct {
	Subs map[string]subRef
}

// streamReference computes, independently of every serving layer, what a
// deployment must report once it has ingested evs and flushed: a batch
// search (core.EnumerateRange, the paper's Algorithm 1) over the ingested
// prefix. The prefix is searched in slices of refSliceEvents events, each
// over a graph of the slice plus the largest δ on either side — an
// instance anchored at t lies within [t, t+δ], so the slices together
// yield exactly the whole-graph instance set (core.EnumerateRange) while
// phase P1 never walks the dense static graph a long stream collapses to.
//
// Subscriptions that differ only in φ share one enumeration at their
// smallest φ: an instance's flow is the minimum of its edge-set flows
// and maximality does not depend on φ, so the instances at a larger φ
// are exactly those whose flow reaches it (the smoke test checks this
// against core.Count per subscription). Generated flows are multiples of
// 1/64, so every flow sum is exact and comparing it with φ cannot come
// out differently on the engine's band graphs and on the graphs here.
func streamReference(subs []stream.Subscription, evs []temporal.Event) (*reference, error) {
	type key struct {
		shape string
		delta int64
	}
	type group struct {
		mo    *motif.Motif
		delta int64
		phi   float64
		subs  []stream.Subscription
	}
	byKey := map[key]*group{}
	var groups []*group
	var maxDelta int64
	for _, s := range subs {
		k := key{s.Motif.ShapeKey(), s.Delta}
		gr := byKey[k]
		if gr == nil {
			gr = &group{mo: s.Motif, delta: s.Delta, phi: s.Phi}
			byKey[k] = gr
			groups = append(groups, gr)
		}
		gr.phi = math.Min(gr.phi, s.Phi)
		gr.subs = append(gr.subs, s)
		maxDelta = max(maxDelta, s.Delta)
	}
	// firstAt is the index of the first event with T >= t.
	firstAt := func(t int64) int {
		return sort.Search(len(evs), func(i int) bool { return evs[i].T >= t })
	}
	// Cut the slices: each ends on a timestamp boundary, so no anchor is
	// split between two of them.
	type slice struct{ lo, hi int }
	var slices []slice
	for lo := 0; lo < len(evs); {
		hi := firstAt(evs[min(lo+refSliceEvents, len(evs))-1].T + 1)
		slices = append(slices, slice{lo, hi})
		lo = hi
	}
	// Two workers take alternate slices, each with a serial search: one
	// walk per slice and shape, no state shared until the merge.
	const workers = 2
	found := make([][][]float64, workers) // worker, group
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		found[w] = make([][]float64, len(groups))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(slices); i += workers {
				aLo, aHi := evs[slices[i].lo].T, evs[slices[i].hi-1].T
				g, err := temporal.NewGraph(evs[firstAt(aLo-maxDelta):firstAt(aHi+maxDelta+1)])
				if err != nil {
					errs[w] = err
					return
				}
				for gi, gr := range groups {
					_, err := core.EnumerateRange(g, gr.mo, core.Params{Delta: gr.delta, Phi: gr.phi}, aLo, aHi, func(in *core.Instance) bool {
						found[w][gi] = append(found[w][gi], in.Flow)
						return true
					})
					if err != nil {
						errs[w] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ref := &reference{Subs: map[string]subRef{}}
	for gi, gr := range groups {
		var flows []float64
		for w := range found {
			flows = append(flows, found[w][gi]...)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(flows)))
		for _, s := range gr.subs {
			n := sort.Search(len(flows), func(i int) bool { return flows[i] < s.Phi })
			ref.Subs[s.ID] = subRef{Detections: int64(n), Top: append([]float64(nil), flows[:min(n, queryK)]...)}
		}
	}
	return ref, nil
}

// refSliceEvents is the reference search's slice length: several δ
// windows of the densest stream, so the δ margins stay a small share,
// and short enough that a slice's static graph stays sparse (sizing
// runs: 4096 took a third of the time 65536 did).
const refSliceEvents = 4096

// sameFlows compares two best-first flow lists. Flows are exact sums of
// multiples of 1/64, so equality is exact.
func sameFlows(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
