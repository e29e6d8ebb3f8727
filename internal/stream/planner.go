package stream

// The shared-evaluation planner (DESIGN.md §11). A finalize round evaluates
// all due subscriptions together instead of one by one, sharing at every
// level a round has:
//
//   - one snapshot per round: a single arena-backed CSR graph over the
//     union extent of every due anchor band (every enumeration is narrowed
//     to its own band by the anchor-range restriction, which is exact as
//     long as the graph covers [band lo − δ, band hi + δ] — see
//     core.EnumerateRange);
//   - one phase-P1 walk per round (core.WalkMatches): the due shapes'
//     spanning paths form a trie the walk descends once, anchored in the
//     due bands only, delivering each shape its structural matches —
//     pruned at the shape's largest due δ over the hull of its bands, a
//     superset for every group of the shape;
//   - one phase-P2 run per plan group (shape, δ): Algorithm 1 looks at φ
//     only to reject edge-sets, so members that differ in φ alone ask for
//     nested subsets of one instance list. The group sweeps its shape's
//     match list once at its smallest φ (core.SweepMatchesRange) and each
//     instance goes to exactly the members whose φ it meets, all of them
//     pointing at one detection payload.
//
// Per-subscription (δ, φ) semantics are untouched — the sweep admits an
// instance for a member on the very comparisons that member's own run
// would make — so the batch-equivalence oracle holds verbatim for
// subscriptions sharing a shape under different (δ, φ).

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"flowmotif/internal/core"
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/temporal"
)

// planKey identifies a plan group: subscriptions sharing a motif shape and
// a δ close identical anchor bands and are evaluated together.
type planKey struct {
	shape string // motif.ShapeKey()
	delta int64
}

// planGroup is the set of live subscriptions under one plan key, kept
// φ-ascending (add order among equal φ) so a sweep's fan-out is a prefix
// of it. Finalization order follows from it: groups in creation order,
// shape by shape (a shape's groups together, where its first one stands);
// each group's instances in enumeration order (the walk's match order,
// each match's windows in anchor order); each instance's detections in
// member order.
type planGroup struct {
	key  planKey
	subs []*subState
	cost groupCostState // attribution account (cost.go)
}

// enterGroupLocked registers s with the engine: the flat subscription
// list, the δ retention bound, and its (shape, δ) plan group, created on
// first use. The caller holds mu (or the engine is under construction).
func (e *Engine) enterGroupLocked(s *subState) {
	e.subs = append(e.subs, s)
	if s.sub.Delta > e.maxDelta {
		e.maxDelta = s.sub.Delta
	}
	k := planKey{shape: s.sub.Motif.ShapeKey(), delta: s.sub.Delta}
	g := e.groupIdx[k]
	if g == nil {
		g = &planGroup{key: k}
		e.groupIdx[k] = g
		e.groups = append(e.groups, g)
	}
	i := sort.Search(len(g.subs), func(i int) bool { return g.subs[i].sub.Phi > s.sub.Phi })
	g.subs = slices.Insert(g.subs, i, s)
	e.attachCostLocked(s, g)
}

// leaveGroupLocked removes s from its plan group, dropping the group when
// it empties. The caller holds mu and removes s from e.subs itself.
func (e *Engine) leaveGroupLocked(s *subState) {
	k := planKey{shape: s.sub.Motif.ShapeKey(), delta: s.sub.Delta}
	g := e.groupIdx[k]
	if g == nil {
		return
	}
	for i, have := range g.subs {
		if have == s {
			g.subs = append(g.subs[:i], g.subs[i+1:]...)
			break
		}
	}
	if len(g.subs) == 0 {
		delete(e.groupIdx, k)
		for i, have := range e.groups {
			if have == g {
				e.groups = append(e.groups[:i], e.groups[i+1:]...)
				break
			}
		}
	}
}

// dueBand is one plan group's work for a finalize round: the members whose
// emitted bound trails the newly closed anchor bound hi (φ-ascending, like
// the group), the anchor range [lo, hi] they close between them, and the
// index of their shape's plan.
type dueBand struct {
	group  *planGroup
	subs   []*subState
	first  int // subs is members[first : first+len(subs)]
	lo, hi int64
	plan   int
}

// shapePlan is one shape's part of a round: how many due bands watch it
// and what phase P1 must cover for them — their largest δ and the hull of
// their anchor ranges, a superset condition for each.
type shapePlan struct {
	shape    string
	mo       *motif.Motif
	bands    int
	nsubs    int
	maxDelta int64
	lo, hi   int64
}

// roundScratch is a finalize round's bookkeeping — its due bands and their
// members, its shape plans and walk targets, and one sweep's thresholds —
// kept across rounds so that, like the arena's and the slabs', its storage
// is reused. Only finalize and sweepBand touch it, under mu.
type roundScratch struct {
	due     []dueBand
	members []*subState
	plans   []shapePlan
	targets []core.WalkTarget
	phis    []float64
	meter   roundMeter
}

// finalize enumerates, for every subscription, the anchor band of newly
// closed windows (emitted, hi] and emits its maximal instances. A window
// anchored at ts is closed once it can gain no further event: future
// events have T >= watermark, so ts+δ <= watermark-1 suffices — or any ts
// when the stream has terminally ended (flush). The caller holds mu.
func (e *Engine) finalize(terminal bool) {
	w, ok := e.log.Watermark()
	if !ok {
		return
	}

	// Collect the round's due bands, bucketed by shape (first-seen order,
	// so finalization order is deterministic), and the union snapshot
	// extent: each band needs the events of [lo−δ, hi+δ] (DESIGN.md §7).
	rs := &e.round
	due, members, plans := rs.due[:0], rs.members[:0], rs.plans[:0]
	snapLo, snapHi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, g := range e.groups {
		hi := w
		if !terminal {
			hi = satSub(w, 1+g.key.delta)
		}
		first := len(members)
		lo := int64(math.MaxInt64)
		for _, s := range g.subs {
			if !s.primed || hi <= s.emitted {
				continue
			}
			members = append(members, s)
			lo = min(lo, satAdd(s.emitted, 1))
		}
		if len(members) == first {
			continue
		}
		i := slices.IndexFunc(plans, func(sp shapePlan) bool { return sp.shape == g.key.shape })
		if i < 0 {
			i = len(plans)
			plans = append(plans, shapePlan{shape: g.key.shape, mo: members[first].sub.Motif, lo: lo, hi: hi})
		}
		// A band's members are a window of the round's member list; a later
		// append that moves the list leaves the window on the old array.
		db := dueBand{group: g, subs: members[first:len(members):len(members)], first: first, lo: lo, hi: hi, plan: i}
		due = append(due, db)
		snapLo = min(snapLo, satSub(lo, g.key.delta))
		snapHi = max(snapHi, satAdd(hi, g.key.delta))

		sp := &plans[i]
		sp.bands++
		sp.nsubs += len(db.subs)
		sp.maxDelta = max(sp.maxDelta, g.key.delta)
		sp.lo, sp.hi = min(sp.lo, lo), max(sp.hi, hi)
	}
	rs.due, rs.members, rs.plans = due, members, plans
	if len(due) == 0 {
		return
	}
	m := &rs.meter
	m.begin(e)

	// One snapshot per round over the union extent of every due band;
	// every group reads the same arena-backed graph through its own anchor
	// range, and the arena recycles the previous round's buffers.
	snapSpan := m.child("finalize.snapshot", m.span)
	snap, err := e.log.BuildGraphArena(&e.arena, snapLo, snapHi)
	if err != nil {
		// Unreachable: the log only holds validated events.
		panic(fmt.Sprintf("stream: round snapshot: %v", err))
	}
	e.out.g, e.out.members = snap, members
	e.snapshotBuilds++
	if snapSpan != nil {
		snapSpan.Annotate(obs.L("events", strconv.Itoa(snap.NumEvents())))
	}
	snapSpan.End()
	m.snap = m.lap()

	// Phase P1, one walk per round: every due shape's matches, band-
	// anchored, into that shape's slab (storage recycled like the arena's).
	matchSpan := m.child("finalize.match", m.span)
	for len(e.slabs) < len(plans) {
		e.slabs = append(e.slabs, new(core.MatchSlab))
	}
	targets := rs.targets[:0]
	for i := range plans {
		sp := &plans[i]
		e.slabs[i].Reset()
		targets = append(targets, core.WalkTarget{Motif: sp.mo, Delta: sp.maxDelta, AnchorLo: sp.lo, AnchorHi: sp.hi, Visit: e.slabs[i].Add})
	}
	rs.targets = targets
	if err := core.WalkMatches(snap, targets); err != nil {
		// Unreachable: δ was validated when the subscription was added.
		panic(fmt.Sprintf("stream: walk matches: %v", err))
	}
	e.matchRuns++
	total := 0
	for i := range plans {
		n := e.slabs[i].Len()
		total += n
		e.matchesShared += int64(n) * int64(plans[i].nsubs-1)
	}
	if matchSpan != nil {
		matchSpan.Annotate(obs.L("shapes", strconv.Itoa(len(plans))), obs.L("matches", strconv.Itoa(total)))
	}
	matchSpan.End()
	m.walk = m.lap()

	// Phase P2: every due group sweeps its shape's list over its own band.
	for i := range plans {
		sp := &plans[i]
		matches := e.slabs[i].Matches()
		m.shape(len(matches))
		// One span per shape: at what δ, for how many consumers — the unit
		// a slow round decomposes into.
		var planSpan *obs.TraceSpan
		if m.span != nil {
			planSpan = m.child("finalize.plan", m.span,
				obs.L("shape", sp.shape),
				obs.L("delta", strconv.FormatInt(sp.maxDelta, 10)),
				obs.L("subs", strconv.Itoa(sp.nsubs)),
				obs.L("bands", strconv.Itoa(sp.bands)),
				obs.L("matches", strconv.Itoa(len(matches))))
		}
		fanSpan := m.child("finalize.fanout", planSpan)
		for _, db := range due {
			if db.plan != i {
				continue
			}
			// One sweep per run of members sharing an emitted bound — the
			// whole band, except in the round a late joiner catches up.
			for rest, off := db.subs, db.first; len(rest) > 0; {
				n := 1
				for n < len(rest) && rest[n].emitted == rest[0].emitted {
					n++
				}
				e.sweepBand(snap, matches, rest[:n], off, db.hi, w)
				m.sweep(db.group, rest[:n])
				rest, off = rest[n:], off+n
			}
		}
		fanSpan.End()
		planSpan.End()
	}
	m.end(e, w, len(due))
}

// sweepBand advances subs — due members of one plan group that share an
// emitted bound, φ-ascending, at offset sub of the round's member list — to
// hi with a single phase-P2 run of their shape's matches over their newly
// closed anchor band (emitted, hi] at the smallest φ
// (core.SweepMatchesRange). The sweep lends each instance, and sweepBand
// records it once into e.out with the number of members whose φ it meets
// (a prefix of subs): no Detection is built here, and once the round's
// slabs have grown a record allocates nothing. The caller holds mu.
//
//flowmotif:hotpath
func (e *Engine) sweepBand(g *temporal.Graph, matches []match.Match, subs []*subState, sub int, hi, w int64) {
	phis := e.round.phis[:0]
	for _, s := range subs {
		phis = append(phis, s.sub.Phi)
		s.bandEmits = 0
	}
	e.round.phis = phis
	p := core.Params{Delta: subs[0].sub.Delta, Phi: phis[0]}
	_, err := core.SweepMatchesRange(g, subs[0].sub.Motif, matches, p, phis, satAdd(subs[0].emitted, 1), hi, func(in *core.Instance, admitted int) bool {
		e.out.record(in, sub, admitted, w)
		for _, s := range subs[:admitted] {
			s.bandEmits++
		}
		return true
	})
	if err != nil {
		// Unreachable: params were validated when the subscription was added.
		panic(fmt.Sprintf("stream: enumerate: %v", err))
	}
	for _, s := range subs {
		s.detections += s.bandEmits
		e.detections += s.bandEmits
		s.bands++
		e.bandsTotal++
		s.emitted = hi
	}
}
