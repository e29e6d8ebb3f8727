package stream

// The shared-evaluation planner (DESIGN.md §11). The engine's finalize
// path used to evaluate each subscription in isolation: one band graph
// built and one phase-P1 match walk run per subscription per round, O(subs
// × window) even when thousands of subscriptions watch the same motif
// shape. The planner replaces that with three levels of sharing:
//
//   - one snapshot per finalize round: a single arena-backed CSR graph
//     over the union extent of every due anchor band (all groups read the
//     same arena; each enumeration is narrowed to its own band by the
//     anchor-range restriction, which is exact as long as the graph covers
//     [band lo − δ, band hi + δ] — see core.EnumerateRange);
//   - one phase-P1 run per motif shape: structural matches depend only on
//     the shape, so the match list is collected once (fused-pruned at the
//     shape's largest due δ, a superset for every smaller δ);
//   - one phase-P2 run per plan group (shape, δ): Algorithm 1 looks at φ
//     only to reject edge-sets, so members that differ in φ alone ask for
//     nested subsets of one instance list. The group sweeps the match list
//     once at its smallest φ (core.SweepMatchesRange) and each instance
//     goes to exactly the members whose φ it meets, all of them pointing
//     at one detection payload.
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
	"sync"

	"flowmotif/internal/core"
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
// of it. With Workers <= 1 finalization order is deterministic: groups in
// creation order, instances in enumeration order, and each instance's
// detections in member order.
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
// the group), and the graph extent their bands need ([lo−δ, hi+δ], see
// core.EnumerateRange).
type dueBand struct {
	group    *planGroup
	subs     []*subState
	hi       int64
	gLo, gHi int64 // band graph extent
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

	// Collect the round's due bands and the union snapshot extent.
	var due []dueBand
	snapLo, snapHi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, g := range e.groups {
		hi := w
		if !terminal {
			hi = satSub(w, 1+g.key.delta)
		}
		var members []*subState
		lo := int64(math.MaxInt64)
		for _, s := range g.subs {
			if !s.primed || hi <= s.emitted {
				continue
			}
			members = append(members, s)
			if l := satAdd(s.emitted, 1); l < lo {
				lo = l
			}
		}
		if len(members) == 0 {
			continue
		}
		gLo, gHi := satSub(lo, g.key.delta), satAdd(hi, g.key.delta)
		due = append(due, dueBand{group: g, subs: members, hi: hi, gLo: gLo, gHi: gHi})
		if gLo < snapLo {
			snapLo = gLo
		}
		if gHi > snapHi {
			snapHi = gHi
		}
	}
	if len(due) == 0 {
		return
	}
	var tr roundTrace
	tr.begin(e)
	var rc roundCost
	rc.begin(e)

	// One snapshot per round over the union extent of every due band;
	// every group reads the same arena-backed graph through its own anchor
	// range, and the arena recycles the previous round's buffers.
	snapSpan := e.startPlanSpan("finalize.snapshot", tr.span)
	ct := rc.now()
	snap, err := e.log.BuildGraphArena(&e.arena, snapLo, snapHi)
	if err != nil {
		// Unreachable: the log only holds validated events.
		panic(fmt.Sprintf("stream: round snapshot: %v", err))
	}
	rc.addSnap(ct)
	e.snapshotBuilds++
	if snapSpan != nil {
		snapSpan.Annotate(obs.L("events", strconv.Itoa(snap.NumEvents())))
	}
	snapSpan.End()
	tr.mark(&tr.snap)

	// Bucket the due groups by shape (first-seen order, so finalization
	// order is deterministic) and run phase P1 once per shape.
	type shapePlan struct {
		maxDelta int64
		bands    []int // indices into due
		nsubs    int
		lo, hi   int64 // union graph extent of the shape's bands
	}
	var order []string
	plans := map[string]*shapePlan{}
	for i := range due {
		k := due[i].group.key
		sp := plans[k.shape]
		if sp == nil {
			sp = &shapePlan{lo: due[i].gLo, hi: due[i].gHi}
			plans[k.shape] = sp
			order = append(order, k.shape)
		}
		sp.bands = append(sp.bands, i)
		sp.nsubs += len(due[i].subs)
		if k.delta > sp.maxDelta {
			sp.maxDelta = k.delta
		}
		if due[i].gLo < sp.lo {
			sp.lo = due[i].gLo
		}
		if due[i].gHi > sp.hi {
			sp.hi = due[i].gHi
		}
	}
	for _, shape := range order {
		sp := plans[shape]
		// One span per plan-group run: which shape, at what δ, for how many
		// consumers — the unit a slow round decomposes into.
		var planSpan *obs.TraceSpan
		if tr.span != nil {
			planSpan = e.startPlanSpan("finalize.plan", tr.span,
				obs.L("shape", shape),
				obs.L("delta", strconv.FormatInt(sp.maxDelta, 10)),
				obs.L("subs", strconv.Itoa(sp.nsubs)),
				obs.L("bands", strconv.Itoa(len(sp.bands))))
		}
		// A shape whose own extent is a sliver of the union snapshot (a
		// small-δ shape sharing the round with a much larger δ) would pay
		// the big window's phase-P1 cost for nothing: give it a private
		// band graph instead. The cutoff is measured in retained events
		// (two binary searches), and both paths are exact — the
		// equivalence oracle runs them all — so this is purely a cost
		// policy.
		rc.shape()
		g := snap
		if 4*len(e.log.Range(sp.lo, sp.hi)) < snap.NumEvents() {
			ct := rc.now()
			sg, err := e.log.BuildGraph(sp.lo, sp.hi)
			if err != nil {
				// Unreachable: the log only holds validated events.
				panic(fmt.Sprintf("stream: shape snapshot: %v", err))
			}
			rc.addShapeSnap(ct)
			e.snapshotBuilds++
			g = sg
			tr.mark(&tr.snap)
		}
		// A shape with a single consumer streams fused matches straight
		// into phase P2 without materializing them (the pre-planner fast
		// path; the fused P1+P2 walk is not stage-separable, it lands in
		// fanout). Any other shape collects its match list once and every
		// due group sweeps it.
		mo := due[sp.bands[0]].subs[0].sub.Motif
		var walk p2Walk
		if sp.nsubs == 1 {
			walk = func(p core.Params, _ []float64, lo, hi int64, visit core.SweepVisitor) (core.EnumStats, error) {
				return core.EnumerateRange(g, mo, p, lo, hi, func(in *core.Instance) bool { return visit(in, 1) })
			}
		} else {
			matchSpan := e.startPlanSpan("finalize.match", planSpan)
			ct = rc.now()
			matches, err := core.CollectMatches(g, mo, sp.maxDelta)
			if err != nil {
				// Unreachable: δ was validated when the subscription was added.
				panic(fmt.Sprintf("stream: collect matches: %v", err))
			}
			rc.addMatch(ct, len(matches))
			e.matchesShared += int64(len(matches)) * int64(sp.nsubs-1)
			if matchSpan != nil {
				matchSpan.Annotate(obs.L("matches", strconv.Itoa(len(matches))))
			}
			matchSpan.End()
			tr.mark(&tr.match)
			walk = func(p core.Params, phis []float64, lo, hi int64, visit core.SweepVisitor) (core.EnumStats, error) {
				return core.SweepMatchesRange(g, mo, matches, p, phis, lo, hi, visit)
			}
		}
		e.matchRuns++
		fanSpan := e.startPlanSpan("finalize.fanout", planSpan)
		for _, bi := range sp.bands {
			db := due[bi]
			// One sweep per run of members sharing an emitted bound — the
			// whole band, except in the round a late joiner catches up.
			for rest := db.subs; len(rest) > 0; {
				n := 1
				for n < len(rest) && rest[n].emitted == rest[0].emitted {
					n++
				}
				ct := rc.now()
				e.sweepBand(g, rest[:n], db.hi, w, walk)
				rc.sample(db.group, rest[:n], ct)
				rest = rest[n:]
			}
		}
		fanSpan.End()
		planSpan.End()
		tr.mark(&tr.fanout)
	}
	tr.end(e, w, len(due))
	e.applyCostLocked(&rc)
}

// p2Walk is the phase-P2 run a sweep drives: the fused walk for a shape's
// only consumer, core.SweepMatchesRange over the shape's match list
// otherwise.
type p2Walk func(p core.Params, phis []float64, lo, hi int64, visit core.SweepVisitor) (core.EnumStats, error)

// sweepBand advances subs — due members of one plan group that share an
// emitted bound, φ-ascending — to hi with a single phase-P2 run over their
// newly closed anchor band (emitted, hi] at the smallest φ, collecting
// detections into e.pending: an instance's payload is built once, and the
// members whose φ it meets (a prefix of subs) each get a header of their
// own over it. The caller holds mu.
//
//flowmotif:hotpath
func (e *Engine) sweepBand(g *temporal.Graph, subs []*subState, hi, w int64, walk p2Walk) {
	phis := make([]float64, len(subs))
	for i, s := range subs {
		phis[i] = s.sub.Phi
		s.bandEmits = 0
	}
	p := core.Params{Delta: subs[0].sub.Delta, Phi: phis[0], Workers: e.workers}
	// With Workers > 1 the visitor runs concurrently; bandMu guards the
	// pending list and counters (mu is held but not by the workers).
	var bandMu sync.Mutex
	_, err := walk(p, phis, satAdd(subs[0].emitted, 1), hi, func(in *core.Instance, admitted int) bool {
		payload := detectionPayload(g, in, w)
		bandMu.Lock()
		for _, s := range subs[:admitted] {
			d := payload
			d.Sub, d.Motif = s.sub.ID, s.sub.Motif.Name()
			s.bandEmits++
			e.pending = append(e.pending, &d)
		}
		bandMu.Unlock()
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
