package core

import (
	"container/heap"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// TopK finds the k maximal instances of mo in g with the highest flow,
// among instances satisfying the duration constraint delta (the paper's §5:
// φ is replaced by a floating threshold — the flow of the current k-th best
// instance — which prunes exactly like φ does). The result is sorted by
// flow descending (ties broken by start time, then node binding, for
// determinism). Fewer than k instances are returned if the graph has fewer.
func TopK(g *temporal.Graph, mo *motif.Motif, delta int64, k int, workers int) ([]*Instance, EnumStats, error) {
	if k <= 0 {
		return nil, EnumStats{}, errors.New("core: k must be positive")
	}
	h := &topkHeap{k: k}
	h.threshold.Store(math.Float64bits(0))

	// Floating threshold: once the heap is full, an edge-set (and hence an
	// instance, whose flow is the min over edge-sets) must strictly beat
	// the k-th flow to matter.
	pass := func(f float64) bool {
		t := math.Float64frombits(h.threshold.Load())
		if h.full.Load() {
			return f > t
		}
		return true
	}
	visit := func(in *Instance, _ float64) bool {
		h.mu.Lock()
		h.push(in)
		h.mu.Unlock()
		return true
	}

	stats, err := search(g, mo, Params{Delta: delta, Workers: workers}, pass, fullWalk(g, mo, delta), math.MinInt64, math.MaxInt64, visit)
	if err != nil {
		return nil, stats, err
	}
	out := make([]*Instance, len(h.items))
	copy(out, h.items)
	sort.Slice(out, func(i, j int) bool { return instanceLess(out[j], out[i]) })
	return out, stats, nil
}

// TopOne returns the single maximal instance with the highest flow, or nil
// if the motif has no instance under delta.
func TopOne(g *temporal.Graph, mo *motif.Motif, delta int64, workers int) (*Instance, EnumStats, error) {
	res, stats, err := TopK(g, mo, delta, 1, workers)
	if err != nil || len(res) == 0 {
		return nil, stats, err
	}
	return res[0], stats, nil
}

// instanceLess is a deterministic total order: flow ascending, then start
// time, end time, and node binding.
func instanceLess(a, b *Instance) bool {
	if a.Flow != b.Flow {
		return a.Flow < b.Flow
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.End != b.End {
		return a.End < b.End
	}
	for i := range a.Nodes {
		if i >= len(b.Nodes) {
			return false
		}
		if a.Nodes[i] != b.Nodes[i] {
			return a.Nodes[i] < b.Nodes[i]
		}
	}
	return len(a.Nodes) < len(b.Nodes)
}

// topkHeap is a bounded min-heap on instance flow with an atomically
// readable threshold so passFunc never takes the lock.
type topkHeap struct {
	mu        sync.Mutex
	items     []*Instance
	k         int
	threshold atomic.Uint64 // Float64bits of the k-th flow
	full      atomic.Bool
}

func (h *topkHeap) Len() int           { return len(h.items) }
func (h *topkHeap) Less(i, j int) bool { return instanceLess(h.items[i], h.items[j]) }
func (h *topkHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topkHeap) Push(x interface{}) { h.items = append(h.items, x.(*Instance)) }
func (h *topkHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// push inserts a Clone of the borrowed in if it beats the current k-th
// flow; callers hold mu.
func (h *topkHeap) push(in *Instance) {
	if len(h.items) < h.k {
		heap.Push(h, in.Clone())
		if len(h.items) == h.k {
			h.full.Store(true)
			h.threshold.Store(math.Float64bits(h.items[0].Flow))
		}
		return
	}
	if in.Flow <= h.items[0].Flow {
		return
	}
	h.items[0] = in.Clone()
	heap.Fix(h, 0)
	h.threshold.Store(math.Float64bits(h.items[0].Flow))
}
