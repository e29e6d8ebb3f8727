package stream

// Per-subscription cost attribution (DESIGN.md §14). The shared-evaluation
// planner deliberately blurs who pays for what: one snapshot and one
// phase-P1 walk serve every due subscription, so a subscription's real
// cost is invisible to per-call accounting. This file takes the round
// meter's (obs.go) readings of the snapshot build, the phase-P1 walk and
// every plan group's phase-P2 sweep, plus the emit drain that builds the
// detections the sinks keep (round.go); splits the walk across shapes by
// the matches it delivered to each, and each sweep and each drain across
// its members by the detections they received; and splits the shared
// stage costs back onto member subscriptions proportionally to their
// fan-out time (equal split when the weights are all zero). The
// attributed totals surface as SubCost and GroupCostStats in Stats, as the
// counters flowmotif_sub_cost_seconds_total{shape,sub} and
// flowmotif_group_cost_seconds_total{delta,shape}, and feed GET /debug/top.

import (
	"math"
	"strconv"
	"time"

	"flowmotif/internal/obs"
)

// costEwmaTau is the time constant of the attributed-cost rate estimator:
// each round's attributed seconds enter as an impulse of add/τ that decays
// exponentially, so a steady workload of X engine-seconds per wall-second
// converges to a rate of X (half-life τ·ln2 ≈ 21s).
const costEwmaTau = 30 * time.Second

// SubCost is one subscription's attributed-cost readout: total engine
// seconds attributed to it (its own fan-out — sweeps and the drains that
// build its detections — plus its proportional share of the shared
// snapshot/match stages), its fan-out-only seconds,
// its share of all attributed engine work, and the EWMA cost rate
// (attributed seconds per wall second).
type SubCost struct {
	Seconds       float64 `json:"seconds"`
	FanoutSeconds float64 `json:"fanoutSeconds"`
	Emits         int64   `json:"emits"`
	Share         float64 `json:"share"`
	Rate          float64 `json:"rate"`
}

// GroupCostStats is one plan group's attributed-cost readout: the (shape,
// δ) key, its member count, the attributed seconds broken down by stage,
// structural matches its fan-outs replayed, instances emitted, share of
// engine work, and the EWMA cost rate.
type GroupCostStats struct {
	Shape           string  `json:"shape"`
	Delta           int64   `json:"delta"`
	Subs            int     `json:"subs"`
	Seconds         float64 `json:"seconds"`
	SnapshotSeconds float64 `json:"snapshotSeconds"`
	MatchSeconds    float64 `json:"matchSeconds"`
	FanoutSeconds   float64 `json:"fanoutSeconds"`
	MatchesVisited  int64   `json:"matchesVisited"`
	Emits           int64   `json:"emits"`
	Share           float64 `json:"share"`
	Rate            float64 `json:"rate"`
}

// EngineCostStats is the engine-level attribution account: the seconds
// attributed across all subscriptions, the independently measured seconds
// of the finalize rounds and their emit drains that they must sum to (the
// oracle in cost_test.go holds them within 10%), and the metered round
// count.
type EngineCostStats struct {
	AttributedSeconds float64 `json:"attributedSeconds"`
	RoundSeconds      float64 `json:"roundSeconds"`
	Rounds            int64   `json:"rounds"`
}

// subCostState is the per-subscription attribution account on subState.
type subCostState struct {
	attribNs int64
	fanoutNs int64
	rate     float64
	rateAt   time.Time
	ctr      *obs.FloatCounter // flowmotif_sub_cost_seconds_total{shape,sub}
}

// groupCostState is the per-plan-group attribution account on planGroup.
type groupCostState struct {
	attribNs int64
	snapNs   int64
	matchNs  int64
	fanoutNs int64
	matches  int64
	emits    int64
	rate     float64
	rateAt   time.Time
	roundNs  int64             // scratch: this round's attributed ns
	ctr      *obs.FloatCounter // flowmotif_group_cost_seconds_total{delta,shape}
}

// attachCostLocked registers the cost counters for a subscription entering
// a plan group. The caller holds mu (or the engine is under construction).
func (e *Engine) attachCostLocked(s *subState, g *planGroup) {
	if e.mx == nil {
		return
	}
	s.cost.ctr = e.obsReg.FloatCounter("flowmotif_sub_cost_seconds_total",
		"Engine seconds attributed to one subscription: its fan-out (sweeps and the sink drains of its detections) plus its proportional share of shared snapshot/match work.",
		obs.L("shape", g.key.shape), obs.L("sub", s.sub.ID))
	if g.cost.ctr == nil {
		g.cost.ctr = e.obsReg.FloatCounter("flowmotif_group_cost_seconds_total",
			"Engine seconds attributed to one (shape, delta) plan group.",
			obs.L("delta", strconv.FormatInt(g.key.delta, 10)), obs.L("shape", g.key.shape))
	}
}

// shapeCost is one shape's part of a round: the matches the walk
// delivered to it (its weight in the walk's time), and its members'
// fan-out time and count.
type shapeCost struct {
	matches int
	fanNs   int64
	members int
}

// costSample is one subscription's part of a sweep: its group, its shape,
// and its share of the sweep's wall time.
type costSample struct {
	g     *planGroup
	s     *subState
	shape int
	ns    int64
}

// shape opens the next shape's account: the walk delivered it the given
// number of matches, and the sweeps that follow replay them.
func (m *roundMeter) shape(matches int) {
	if m.on {
		m.shapes = append(m.shapes, shapeCost{matches: matches})
	}
}

// sweep closes one sweep of the current shape — group g's members subs —
// with a clock reading, and splits its time across the members by the
// detections each received (equally when the band emitted none), so the
// members' samples sum to the measured sweep.
func (m *roundMeter) sweep(g *planGroup, subs []*subState) {
	if !m.on {
		return
	}
	d := m.lap()
	m.fanout += d
	var emits int64
	for _, s := range subs {
		emits += s.bandEmits
	}
	i := len(m.shapes) - 1
	sc := &m.shapes[i]
	g.cost.matches += int64(sc.matches) // the sweep replayed the list once, whoever paid
	for _, s := range subs {
		ns := d.Nanoseconds() / int64(len(subs))
		if emits > 0 {
			ns = int64(float64(d.Nanoseconds()) * float64(s.bandEmits) / float64(emits))
		}
		sc.fanNs += ns
		sc.members++
		m.samples = append(m.samples, costSample{g: g, s: s, shape: i, ns: ns})
	}
}

// applyCostLocked performs the round's proportional split over the
// meter's readings and folds it into the per-subscription, per-group, and
// engine accounts plus the cost counters. The walk's time splits across
// shapes by matches delivered, then each shape's share across that
// shape's fan-outs by fan-out time; the snapshot splits across every
// fan-out of the round. Weights that are all zero (no matches; fan-outs
// under the clock resolution) split equally. The caller holds mu.
func (e *Engine) applyCostLocked(m *roundMeter, round time.Duration, now time.Time) {
	var roundMatches, roundFan int64
	for _, sc := range m.shapes {
		roundMatches += int64(sc.matches)
		roundFan += sc.fanNs
	}
	// weight returns one part's share of a pool of n parts weighing total.
	weight := func(part, total int64, n int) float64 {
		if total > 0 {
			return float64(part) / float64(total)
		}
		return 1 / float64(n)
	}

	var attributed int64
	for _, sm := range m.samples {
		sc := &m.shapes[sm.shape]
		matchNs := float64(m.walk) * weight(int64(sc.matches), roundMatches, len(m.shapes))
		matchShare := int64(matchNs * weight(sm.ns, sc.fanNs, sc.members))
		snapShare := int64(float64(m.snap) * weight(sm.ns, roundFan, len(m.samples)))
		attributed += e.chargeLocked(sm.g, sm.s, sm.ns, matchShare, snapShare, now)
		sm.g.cost.emits += sm.s.bandEmits
	}
	e.closeCostLocked(attributed, round, now)
	e.costRounds++
}

// chargeDrainLocked charges the round's sink drain, d long, as fan-out:
// materializing the detections the sinks keep, and the sinks' own work,
// split across the round's due members by the detections each received,
// as a sweep is. The drain counts towards the round's measured total, so
// the account keeps summing to it. The caller holds mu, after the drain
// and before the next round.
func (e *Engine) chargeDrainLocked(d time.Duration, now time.Time) {
	due := e.round.due
	var emits int64
	for _, db := range due {
		for _, s := range db.subs {
			emits += s.bandEmits
		}
	}
	if emits == 0 {
		return
	}
	var attributed int64
	for _, db := range due {
		for _, s := range db.subs {
			ns := int64(float64(d.Nanoseconds()) * float64(s.bandEmits) / float64(emits))
			attributed += e.chargeLocked(db.group, s, ns, 0, 0, now)
		}
	}
	e.closeCostLocked(attributed, d, now)
}

// chargeLocked folds one member's part of a round — fan-out plus its
// shares of the walk and the snapshot — into its and its group's accounts
// and counters, and returns the part's total. The caller holds mu.
func (e *Engine) chargeLocked(g *planGroup, s *subState, fan, match, snap int64, now time.Time) int64 {
	total := fan + match + snap
	st := &s.cost
	st.attribNs += total
	st.fanoutNs += fan
	sec := float64(total) / 1e9
	updateCostRate(&st.rate, &st.rateAt, sec, now)
	st.ctr.Add(sec)

	gc := &g.cost
	gc.roundNs += total
	gc.attribNs += total
	gc.fanoutNs += fan
	gc.matchNs += match
	gc.snapNs += snap
	gc.ctr.Add(sec)
	return total
}

// closeCostLocked folds the charged parts into the groups' rates and the
// engine totals: attributed against the measured round time. The caller
// holds mu.
func (e *Engine) closeCostLocked(attributed int64, round time.Duration, now time.Time) {
	for _, g := range e.groups {
		if g.cost.roundNs != 0 {
			updateCostRate(&g.cost.rate, &g.cost.rateAt, float64(g.cost.roundNs)/1e9, now)
			g.cost.roundNs = 0
		}
	}
	e.attribNs += attributed
	e.roundNs += round.Nanoseconds()
}

// updateCostRate folds one round's attributed seconds into a decayed-rate
// estimator (see costEwmaTau): the standing rate decays by e^(-Δt/τ), the
// new work enters as an impulse add/τ.
func updateCostRate(rate *float64, at *time.Time, addSec float64, now time.Time) {
	if !at.IsZero() {
		if dt := now.Sub(*at).Seconds(); dt > 0 {
			*rate *= math.Exp(-dt / costEwmaTau.Seconds())
		}
	}
	*at = now
	*rate += addSec / costEwmaTau.Seconds()
}

// costStatsLocked builds the Stats cost section. The caller holds mu.
func (e *Engine) costStatsLocked(st *Stats) {
	if e.mx == nil {
		return
	}
	st.Cost = EngineCostStats{
		AttributedSeconds: float64(e.attribNs) / 1e9,
		RoundSeconds:      float64(e.roundNs) / 1e9,
		Rounds:            e.costRounds,
	}
	for i := range st.Subs {
		s := e.subs[i]
		st.Subs[i].Cost = SubCost{
			Seconds:       float64(s.cost.attribNs) / 1e9,
			FanoutSeconds: float64(s.cost.fanoutNs) / 1e9,
			Emits:         s.detections,
			Share:         share(s.cost.attribNs, e.attribNs),
			Rate:          s.cost.rate,
		}
	}
	for _, g := range e.groups {
		st.Groups = append(st.Groups, GroupCostStats{
			Shape:           g.key.shape,
			Delta:           g.key.delta,
			Subs:            len(g.subs),
			Seconds:         float64(g.cost.attribNs) / 1e9,
			SnapshotSeconds: float64(g.cost.snapNs) / 1e9,
			MatchSeconds:    float64(g.cost.matchNs) / 1e9,
			FanoutSeconds:   float64(g.cost.fanoutNs) / 1e9,
			MatchesVisited:  g.cost.matches,
			Emits:           g.cost.emits,
			Share:           share(g.cost.attribNs, e.attribNs),
			Rate:            g.cost.rate,
		})
	}
}

func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
