package obs

// SLO helpers (DESIGN.md §14): the burn-rate math the SLO watchdog
// evaluates over histogram-snapshot deltas.

import (
	"math"
	"sort"
)

// CountAtMost returns how many observations fell at or under bound,
// conservatively: the cumulative count through the smallest bucket bound
// >= bound (an observation inside that bucket but above bound still counts
// as good — the bucket resolution is the measurement's error bar).
func (s HistogramSnapshot) CountAtMost(bound float64) uint64 {
	i := sort.SearchFloat64s(s.Bounds, bound)
	var cum uint64
	for b := 0; b <= i && b < len(s.Counts); b++ {
		cum += s.Counts[b]
	}
	return cum
}

// BurnRate is the SLO burn rate of a window: the observed bad fraction
// divided by the error budget (1 − target). 1.0 means the budget is being
// consumed exactly at the sustainable rate; N means the budget burns N×
// too fast. An empty window (total 0) burns nothing; a target >= 1 leaves
// no budget, so any bad observation burns at +Inf.
func BurnRate(bad, total, target float64) float64 {
	if total <= 0 || bad <= 0 {
		return 0
	}
	budget := 1 - target
	frac := bad / total
	if budget <= 0 {
		return math.Inf(1)
	}
	return frac / budget
}

// WindowDelta subtracts an earlier snapshot of the same histogram from s,
// returning the (good-at-most-bound, total) observation counts that landed
// in between — the unit the watchdog's fast/slow burn windows are computed
// over. A counter reset (earlier ahead of s) degrades to s alone.
func (s HistogramSnapshot) WindowDelta(earlier HistogramSnapshot, bound float64) (good, total float64) {
	curGood, curTotal := s.CountAtMost(bound), s.Count
	prevGood, prevTotal := earlier.CountAtMost(bound), earlier.Count
	if prevTotal > curTotal || prevGood > curGood {
		prevGood, prevTotal = 0, 0
	}
	return float64(curGood - prevGood), float64(curTotal - prevTotal)
}
