package stream

import (
	"math"
	"testing"
	"time"

	"flowmotif/internal/motif"
)

// costSubs builds a skewed subscription mix across three plan groups: many
// triangle watchers at a large δ (the expensive group), a couple at a small
// δ, and one on a different shape.
func costSubs() []Subscription {
	catalog := motif.Catalog()
	tri := catalog[1]
	var subs []Subscription
	for i := 0; i < 6; i++ {
		subs = append(subs, Subscription{
			ID: "heavy" + string(rune('0'+i)), Motif: tri, Delta: 2400, Phi: 1,
		})
	}
	subs = append(subs,
		Subscription{ID: "light0", Motif: tri, Delta: 120, Phi: 1},
		Subscription{ID: "light1", Motif: tri, Delta: 120, Phi: 2},
		Subscription{ID: "other", Motif: catalog[0], Delta: 600, Phi: 1},
	)
	return subs
}

// TestCostAttributionOracle is the attribution oracle: per-subscription
// attributed seconds must sum to the engine-level attributed total exactly
// and to the independently measured finalize-round totals within 10%, and
// the ranking must reflect the injected skew (a large-δ group outweighs a
// small-δ one on the same shape). The engine emits into a daemon's sinks
// at their default sizes: a round's detections are built in the drain to
// them, and that drain is charged to the members whose detections it
// carries, so the per-sub check needs sinks that keep detections.
func TestCostAttributionOracle(t *testing.T) {
	evs := streamEvents(t, 11)
	eng, err := NewEngine(Config{Subs: costSubs()}, MultiSink{NewMemorySink(4096), NewTopKSink(50)})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(evs); lo += 512 {
		hi := lo + 512
		if hi > len(evs) {
			hi = len(evs)
		}
		if _, err := eng.Ingest(evs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	st := eng.Stats()

	if st.Cost.Rounds == 0 || st.Cost.AttributedSeconds <= 0 || st.Cost.RoundSeconds <= 0 {
		t.Fatalf("no cost accounting: %+v", st.Cost)
	}
	var subSum, shareSum float64
	perSub := map[string]SubCost{}
	for _, s := range st.Subs {
		subSum += s.Cost.Seconds
		shareSum += s.Cost.Share
		perSub[s.ID] = s.Cost
		if s.Cost.Seconds > 0 && s.Cost.Rate <= 0 {
			t.Errorf("sub %s: attributed %.9fs but zero rate", s.ID, s.Cost.Seconds)
		}
	}
	if d := math.Abs(subSum-st.Cost.AttributedSeconds) / st.Cost.AttributedSeconds; d > 1e-6 {
		t.Errorf("per-sub seconds sum %.9f != attributed total %.9f", subSum, st.Cost.AttributedSeconds)
	}
	if math.Abs(shareSum-1) > 1e-6 {
		t.Errorf("shares sum to %.9f, want 1", shareSum)
	}
	// The oracle proper: attribution accounts for the measured round time.
	if d := math.Abs(subSum-st.Cost.RoundSeconds) / st.Cost.RoundSeconds; d > 0.10 {
		t.Errorf("attributed %.6fs vs measured round total %.6fs: off by %.1f%% (> 10%%)",
			subSum, st.Cost.RoundSeconds, 100*d)
	}
	var groupSum float64
	byDelta := map[int64]GroupCostStats{}
	for _, g := range st.Groups {
		groupSum += g.Seconds
		if g.Shape == st.Subs[0].Shape {
			byDelta[g.Delta] = g
		}
		if got := g.SnapshotSeconds + g.MatchSeconds + g.FanoutSeconds; math.Abs(got-g.Seconds) > 1e-6*math.Max(1, g.Seconds) {
			t.Errorf("group %s/δ=%d: stage sum %.9f != seconds %.9f", g.Shape, g.Delta, got, g.Seconds)
		}
	}
	if d := math.Abs(groupSum-st.Cost.AttributedSeconds) / st.Cost.AttributedSeconds; d > 1e-6 {
		t.Errorf("group seconds sum %.9f != attributed total %.9f", groupSum, st.Cost.AttributedSeconds)
	}
	// Skew: six large-δ triangle watchers must out-cost two small-δ ones.
	heavy, light := byDelta[2400], byDelta[120]
	if heavy.Seconds <= light.Seconds {
		t.Errorf("skew inverted: δ=2400 group %.9fs <= δ=120 group %.9fs", heavy.Seconds, light.Seconds)
	}
	// Per sub, compared as means over each group's members: one member's
	// total is two timings of about 100 µs, too few to order reliably.
	meanOf := func(prefix string, n int) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			sum += perSub[prefix+string(rune('0'+i))].Seconds
		}
		return sum / float64(n)
	}
	if h, l := meanOf("heavy", 6), meanOf("light", 2); h <= l {
		t.Errorf("skew inverted per-sub: mean δ=2400 sub %.9fs <= mean δ=120 sub %.9fs", h, l)
	}
	// The registry counters mirror the Stats account.
	var ctrSum float64
	for _, m := range eng.Obs().Snapshot() {
		if m.Name == "flowmotif_sub_cost_seconds_total" {
			ctrSum += m.Value
		}
	}
	if d := math.Abs(ctrSum-subSum) / subSum; d > 1e-6 {
		t.Errorf("sub cost counters sum %.9f != per-sub seconds %.9f", ctrSum, subSum)
	}
	// The drains are charged: the measured total the account tracks is the
	// rounds' time plus their emit drains', as the stage histograms time them.
	var timed, drained float64
	for _, m := range eng.Obs().Snapshot() {
		switch {
		case m.Name == "flowmotif_finalize_round_seconds":
			timed += m.Hist.Sum
		case m.Name == "flowmotif_finalize_stage_seconds" && m.Labels[0].Value == "emit":
			timed += m.Hist.Sum
			drained += m.Hist.Sum
		}
	}
	if drained <= 0 || math.Abs(timed-st.Cost.RoundSeconds)/st.Cost.RoundSeconds > 1e-6 {
		t.Errorf("measured total %.9fs != rounds plus drains %.9fs (drains %.9fs)", st.Cost.RoundSeconds, timed, drained)
	}
}

// TestCostAttributionDisabled checks the off switch: DisableObs must leave
// the cost accounts at zero with no per-group section.
func TestCostAttributionDisabled(t *testing.T) {
	evs := streamEvents(t, 13)
	eng, err := NewEngine(Config{Subs: costSubs(), DisableObs: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.Cost != (EngineCostStats{}) || st.Groups != nil {
		t.Errorf("cost accounting ran while disabled: %+v groups=%d", st.Cost, len(st.Groups))
	}
	for _, s := range st.Subs {
		if s.Cost != (SubCost{}) {
			t.Errorf("sub %s has cost while disabled: %+v", s.ID, s.Cost)
		}
	}
}

// TestUpdateCostRate pins the EWMA estimator: a steady stream of impulses
// converges toward work/interval, and an idle gap decays the rate by
// e^(-Δt/τ).
func TestUpdateCostRate(t *testing.T) {
	var rate float64
	var at time.Time
	now := time.Unix(1000, 0)
	// 0.1s of work every second: the rate must converge toward 0.1.
	for i := 0; i < 600; i++ {
		now = now.Add(time.Second)
		updateCostRate(&rate, &at, 0.1, now)
	}
	if math.Abs(rate-0.1)/0.1 > 0.05 {
		t.Errorf("steady-state rate %.4f, want ~0.1", rate)
	}
	before := rate
	now = now.Add(costEwmaTau)
	updateCostRate(&rate, &at, 0, now)
	want := before * math.Exp(-1)
	if math.Abs(rate-want) > 1e-9 {
		t.Errorf("decayed rate %.6f, want %.6f", rate, want)
	}
}
