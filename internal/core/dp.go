package core

import (
	"math"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// TopOneDP finds the maximum flow of any instance of mo in g under delta
// using the paper's dynamic-programming module (Algorithm 2, §5.1),
// faithfully implementing the O(τ²·m)-per-window recurrence of Equation 2.
// It returns 0 when the motif has no instance.
func TopOneDP(g *temporal.Graph, mo *motif.Motif, delta int64) (float64, EnumStats, error) {
	return topOneDP(g, mo, fullWalk(g, mo, delta), delta, false, nil)
}

// TopOneDPFast is TopOneDP with an optimized inner maximization: for fixed
// i, Flow([t1,t_{j-1}],κ-1) is non-decreasing in j while flow([t_j,t_i],κ)
// is non-increasing, so the best split is found by binary search, giving
// O(τ log τ · m) per window. Results are identical to TopOneDP; the pair is
// benchmarked as an ablation (see DESIGN.md §6).
func TopOneDPFast(g *temporal.Graph, mo *motif.Motif, delta int64) (float64, EnumStats, error) {
	return topOneDP(g, mo, fullWalk(g, mo, delta), delta, true, nil)
}

// TopOneDPInstance additionally reconstructs an instance attaining the
// maximum flow by backtracking through the DP table (the bold cells of the
// paper's Table 2). The returned instance is valid but not necessarily
// maximal; its maximal extension attains the same flow. It returns a nil
// instance when the motif has no instance.
func TopOneDPInstance(g *temporal.Graph, mo *motif.Motif, delta int64) (float64, *Instance, error) {
	var best *Instance
	flow, _, err := topOneDP(g, mo, fullWalk(g, mo, delta), delta, false, func(in *Instance) {
		best = in
	})
	return flow, best, err
}

// TopOnePerMatch reports the maximum instance flow for every structural
// match Gs (the paper's §5.1 "Extensibility": comparing entity groups by
// their max-flow interactions). fn receives 0 for matches without any
// instance. Matches are visited in deterministic P1 order.
func TopOnePerMatch(g *temporal.Graph, mo *motif.Motif, delta int64, fn func(mt *match.Match, flow float64)) error {
	if err := (Params{Delta: delta}).validate(); err != nil {
		return err
	}
	r := newDPRunner(g, mo, delta, true, nil)
	match.Stream(g, mo, func(mt *match.Match) bool {
		best := 0.0
		r.run(mt, func(_ int64, f float64) {
			if f > best {
				best = f
			}
		})
		fn(mt, best)
		return true
	})
	return nil
}

// TopOnePerWindow reports the maximum instance flow for every processed
// window position of every structural match (the paper's §5.1: comparing
// interaction volume across time periods). fn receives the window start
// time and the best flow in that window (windows with no instance are
// reported with flow 0).
func TopOnePerWindow(g *temporal.Graph, mo *motif.Motif, delta int64, fn func(mt *match.Match, windowStart int64, flow float64)) error {
	if err := (Params{Delta: delta}).validate(); err != nil {
		return err
	}
	r := newDPRunner(g, mo, delta, true, nil)
	match.Stream(g, mo, func(mt *match.Match) bool {
		r.run(mt, func(ts int64, f float64) { fn(mt, ts, f) })
		return true
	})
	return nil
}

func topOneDP(g *temporal.Graph, mo *motif.Motif, src matchSource, delta int64, fast bool, onBest func(*Instance)) (float64, EnumStats, error) {
	if err := (Params{Delta: delta}).validate(); err != nil {
		return 0, EnumStats{}, err
	}
	r := newDPRunner(g, mo, delta, fast, onBest)
	src.each(func(mt *match.Match) bool {
		r.stats.Matches++
		r.run(mt, nil)
		return true
	})
	return r.best, r.stats, nil
}

// dpRunner executes Algorithm 2 on every window the scan yields, reusing
// scratch buffers across windows and matches.
type dpRunner struct {
	windowScan
	fast   bool
	onBest func(*Instance) // non-nil enables backtracking

	starts  []int       // per-edge merge cursors of the current window
	times   []int64     // merged event times of the current window
	cums    [][]float64 // cums[κ][i]: flow of edge κ events in [t0, times[i]]
	ptrs    [][]int32   // ptrs[κ][i]: series index after the last counted event
	choices [][]int32   // choices[κ][i]: argmax split j (backtracking)
	prev    []float64
	cur     []float64

	best float64
}

func newDPRunner(g *temporal.Graph, mo *motif.Motif, delta int64, fast bool, onBest func(*Instance)) *dpRunner {
	m := mo.NumEdges()
	r := &dpRunner{
		windowScan: newWindowScan(g, mo, delta, math.MinInt64, math.MaxInt64),
		fast:       fast,
		onBest:     onBest,
		starts:     make([]int, m),
		cums:       make([][]float64, m),
		ptrs:       make([][]int32, m),
	}
	if onBest != nil {
		r.choices = make([][]int32, m)
	}
	return r
}

// run applies the DP to every window of one structural match. Each
// processed window reports its best flow through report (if non-nil) and
// updates the global best.
func (r *dpRunner) run(mt *match.Match, report func(windowStart int64, flow float64)) {
	r.reset(mt)
	for r.next() {
		r.stats.WindowsProcessed++
		flow := r.window()
		if report != nil {
			report(r.series[0][r.a].T, flow)
		}
	}
}

// window runs the DP recurrence on the current window and returns the best
// instance flow within it.
func (r *dpRunner) window() float64 {
	m := r.m
	a := r.a

	// Merge the in-window event times of all edges (ascending, deduped).
	r.times = r.times[:0]
	starts := r.starts
	for j := 0; j < m; j++ {
		if j == 0 {
			starts[j] = a
		} else {
			starts[j] = r.lb[j]
		}
	}
	for {
		bestT := int64(0)
		bestJ := -1
		for j := 0; j < m; j++ {
			if starts[j] < r.ub[j] {
				t := r.series[j][starts[j]].T
				if bestJ == -1 || t < bestT {
					bestT, bestJ = t, j
				}
			}
		}
		if bestJ == -1 {
			break
		}
		if len(r.times) == 0 || r.times[len(r.times)-1] != bestT {
			r.times = append(r.times, bestT)
		}
		starts[bestJ]++
	}
	tau := len(r.times)
	if tau == 0 {
		return 0
	}

	// Per-edge cumulative flows (and series pointers for backtracking).
	for j := 0; j < m; j++ {
		r.cums[j] = grow(r.cums[j], tau)
		r.ptrs[j] = growI32(r.ptrs[j], tau)
		lo := r.lb[j]
		if j == 0 {
			lo = a
		}
		p := lo
		c := 0.0
		for i := 0; i < tau; i++ {
			for p < r.ub[j] && r.series[j][p].T <= r.times[i] {
				c += r.series[j][p].F
				p++
			}
			r.cums[j][i] = c
			r.ptrs[j][i] = int32(p)
		}
	}

	// κ = 1 (paper numbering): Flow([t1,ti],1) = flow([t1,ti],1).
	r.prev = grow(r.prev, tau)
	r.cur = grow(r.cur, tau)
	copy(r.prev, r.cums[0][:tau])
	if r.choices != nil {
		for j := 0; j < m; j++ {
			r.choices[j] = growI32(r.choices[j], tau)
		}
	}

	// κ = 2..m: Equation 2.
	for k := 1; k < m; k++ {
		ck := r.cums[k]
		for i := 0; i < tau; i++ {
			best := 0.0
			bestJ := int32(-1)
			if r.fast {
				// prev[j-1] is non-decreasing in j; ck[i]-ck[j-1] is
				// non-increasing. Binary search the crossover.
				lo, hi := 1, i // j range [1, i]
				for lo < hi {
					mid := (lo + hi) / 2
					if r.prev[mid-1] < ck[i]-ck[mid-1] {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				for _, j := range [2]int{lo - 1, lo} {
					if j < 1 || j > i {
						continue
					}
					v := minf(r.prev[j-1], ck[i]-ck[j-1])
					if v > best {
						best, bestJ = v, int32(j)
					}
				}
			} else {
				for j := 1; j <= i; j++ { // faithful O(τ) inner loop
					v := minf(r.prev[j-1], ck[i]-ck[j-1])
					if v > best {
						best, bestJ = v, int32(j)
					}
				}
			}
			r.cur[i] = best
			if r.choices != nil {
				r.choices[k][i] = bestJ
			}
		}
		r.prev, r.cur = r.cur, r.prev
	}

	flow := r.prev[tau-1]
	if flow > r.best {
		r.best = flow
		if r.onBest != nil {
			r.onBest(r.backtrack(tau))
		}
	}
	return flow
}

// backtrack reconstructs the instance behind the best cell (κ=m, i=τ-1).
func (r *dpRunner) backtrack(tau int) *Instance {
	i := tau - 1
	for k := r.m - 1; k >= 1; k-- {
		j := int(r.choices[k][i])
		// Edge k covers events in (times[j-1], times[i]].
		r.spans[k] = Span{Start: r.ptrs[k][j-1], End: r.ptrs[k][i]}
		i = j - 1
	}
	r.spans[0] = Span{Start: int32(r.a), End: r.ptrs[0][i]}
	return r.view().Clone()
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
