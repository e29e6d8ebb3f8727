package stream

// A finalize round's detections as records (DESIGN.md §11). sweepBand builds
// no Detection: it appends one record per admitted instance to slabs the
// engine owns and reuses across rounds, and emitPending hands the whole round
// to the sink in one drain. The package's serving sinks read the round whole
// (roundSink) and materialize only the detections a reader gets: the top-k
// list builds those that beat their subscription's k-th best, and a round
// that fills the recent ring by itself stays in it as records — its last
// capacity ones, copied out of the round (copyTail) — until someone reads
// the ring. Any other sink receives every detection, materialized, in
// finalization order. A live record's spans index the round's arena-backed
// snapshot, so every materialization and every tail copy happens inside
// emitPending, before the next round rebuilds the arena — ingestMu orders
// the two.

import (
	"slices"
	"sort"

	"flowmotif/internal/core"
	"flowmotif/internal/temporal"
)

// detRecord is one admitted instance of a round: where its node binding and
// its per-edge arcs, spans and flows sit in the round's slabs, the scalars
// every detection of it carries, and its subscribers — members[sub :
// sub+admitted] of the round's due members, the admitted prefix of a sweep's
// subs. Its detections are the round's [first, first+admitted), in member
// order.
type detRecord struct {
	node, nodes   int32 // node binding: nodes slab [node, node+nodes)
	edge, edges   int32 // arcs, spans and flows slabs [edge, edge+edges)
	sub, admitted int32
	first         int
	flow          float64
	start, end    int64
	watermark     int64
}

// detRound is the current round's records and, while it drains, the
// detections materialized from them. finalize and sweepBand fill it under
// mu; emitPending drains and resets it under ingestMu alone. A copied tail
// (copyTail) is a detRound too, with no snapshot: its spans index points.
type detRound struct {
	g       *temporal.Graph // the round's snapshot: the records' spans index its series; nil in a copied tail
	members []*subState     // the round's due members (roundScratch.members)
	recs    []detRecord
	nodes   []temporal.NodeID
	arcs    []int
	spans   []core.Span
	flows   []float64
	points  []temporal.Point // a copied tail's events, one run per edge
	n       int              // detections recorded: the sum of admitted

	// Drain memo, indexed like the round's detections: the detection handed
	// out for each, nil until its record is materialized.
	dets []*Detection
	// The tails copied during the drain, published once it ends.
	tails []roundTail
}

// record appends one instance the sweep lends, admitted by members[sub :
// sub+admitted]; the slabs copy what the instance borrows, so once they
// have grown to a round's size a record allocates nothing.
func (r *detRound) record(in *core.Instance, sub, admitted int, watermark int64) {
	r.recs = append(r.recs, detRecord{
		node: int32(len(r.nodes)), nodes: int32(len(in.Nodes)),
		edge: int32(len(r.arcs)), edges: int32(len(in.Arcs)),
		sub: int32(sub), admitted: int32(admitted), first: r.n,
		flow: in.Flow, start: in.Start, end: in.End, watermark: watermark,
	})
	r.nodes = append(r.nodes, in.Nodes...)
	r.arcs = append(r.arcs, in.Arcs...)
	r.spans = append(r.spans, in.Spans...)
	r.flows = append(r.flows, in.EdgeFlows...)
	r.n += admitted
}

// reset empties the round, keeping the slabs' storage, and clears the
// drain memo, so the engine pins no detection once the sinks are done
// with it.
func (r *detRound) reset() {
	clear(r.dets)
	clear(r.tails)
	r.recs, r.nodes, r.arcs, r.spans, r.flows, r.points = r.recs[:0], r.nodes[:0], r.arcs[:0], r.spans[:0], r.flows[:0], r.points[:0]
	r.dets, r.tails = r.dets[:0], r.tails[:0]
	r.n = 0
}

// emit drains the round to s (nil: discards it), publishes the tails the
// drain copied and resets the round — also when s panics, so that the
// next round starts empty rather than on records that index a recycled
// snapshot.
func (r *detRound) emit(s Sink) {
	defer r.reset()
	if s != nil {
		r.dets = slices.Grow(r.dets[:0], r.n)[:r.n]
		defer r.publishTails()
		drain(s, r)
	}
}

// roundTail is a MemorySink's copy of the round's last detections, taken
// during the drain and published after it.
type roundTail struct {
	m *MemorySink
	t *detRound
}

// publishTails hands each copied tail the detections the whole drain built
// for it — a sibling later in a MultiSink may have built some — so that
// sinks keeping the same detection keep one *Detection, and then lets the
// sink's readers see the round.
func (r *detRound) publishTails() {
	for _, rt := range r.tails {
		for i, d := range r.dets[r.n-rt.t.n:] {
			if d != nil {
				rt.t.dets[i] = d
			}
		}
		rt.m.publishRound(rt.t, r.n)
	}
}

// roundSink is implemented by the sinks that read a round whole
// (MultiSink, MemorySink, TopKSink).
type roundSink interface {
	emitRound(r *detRound)
}

// drain hands the round to s: a roundSink reads it whole; any other sink
// receives every detection, in finalization order.
func drain(s Sink, r *detRound) {
	if rs, ok := s.(roundSink); ok {
		rs.emitRound(r)
		return
	}
	for ri := range r.recs {
		for j := range int(r.recs[ri].admitted) {
			s.Emit(r.detection(ri, j))
		}
	}
}

// detection returns the j-th detection of record ri. The first call for a
// record materializes all of its detections — one payload, and over it one
// array of headers, one per admitted member — and later calls, from any
// sink of the drain, return the same pointers.
func (r *detRound) detection(ri, j int) *Detection {
	rec := &r.recs[ri]
	if d := r.dets[rec.first+j]; d != nil {
		return d
	}
	p := r.buildPayload(rec)
	ds := make([]Detection, rec.admitted)
	for k := range ds {
		s := r.members[int(rec.sub)+k].sub
		ds[k] = p
		ds[k].Sub, ds[k].Motif = s.ID, s.Motif.Name()
		r.dets[rec.first+k] = &ds[k]
	}
	return r.dets[rec.first+j]
}

// tail materializes the round's last k detections (all of them, if it has
// fewer) and returns them in finalization order. The slice is the drain
// memo's: valid until the drain ends. MemorySink takes it for a round
// smaller than its ring; a larger one it keeps as a copied tail.
func (r *detRound) tail(k int) []*Detection {
	lo := max(r.n-k, 0)
	ri := sort.Search(len(r.recs), func(i int) bool { return r.recs[i].first+int(r.recs[i].admitted) > lo })
	for ; ri < len(r.recs); ri++ {
		r.detection(ri, max(lo-r.recs[ri].first, 0))
	}
	return r.dets[lo:r.n]
}

// copyTail copies the round's last k detections (0 < k <= r.n) into t as
// records that index no snapshot, so they outlive the round: the records
// from the one holding the k-th last detection on, trimmed to it, their
// node bindings and flows, each edge's events out of the snapshot into
// t.points (spans re-based onto it), and the members. Once t's slabs have
// grown to a round's tail, the copy allocates nothing.
func (r *detRound) copyTail(t *detRound, k int) {
	lo := r.n - k
	ri := sort.Search(len(r.recs), func(i int) bool { return r.recs[i].first+int(r.recs[i].admitted) > lo })
	node0, edge0 := r.recs[ri].node, r.recs[ri].edge
	t.members = append(t.members[:0], r.members...)
	t.recs = append(t.recs[:0], r.recs[ri:]...)
	t.nodes = append(t.nodes[:0], r.nodes[node0:]...)
	t.flows = append(t.flows[:0], r.flows[edge0:]...)
	t.spans, t.points = t.spans[:0], t.points[:0]
	for e := int(edge0); e < len(r.spans); e++ {
		sp := r.spans[e]
		start := int32(len(t.points))
		t.points = append(t.points, r.g.Series(r.arcs[e])[sp.Start:sp.End]...)
		t.spans = append(t.spans, core.Span{Start: start, End: int32(len(t.points))})
	}
	for i := range t.recs {
		rec := &t.recs[i]
		rec.node -= node0
		rec.edge -= edge0
		rec.first -= lo
		if rec.first < 0 { // the head lies before the tail
			rec.sub -= int32(rec.first)
			rec.admitted += int32(rec.first)
			rec.first = 0
		}
	}
	t.n = k
	t.dets = slices.Grow(t.dets[:0], k)[:k]
	clear(t.dets)
}

// buildPayload copies a record's instance out of the round's slabs and
// snapshot (a copied tail's points) into the arrays its detections share,
// in four allocations: the node binding, the edge flows, one events array,
// and its cut per edge.
func (r *detRound) buildPayload(rec *detRecord) Detection {
	spans := r.spans[rec.edge : rec.edge+rec.edges]
	n := 0
	for _, sp := range spans {
		n += int(sp.End - sp.Start)
	}
	events := make([]temporal.Point, 0, n)
	edges := make([][]temporal.Point, len(spans))
	for i, sp := range spans {
		src := r.points
		if r.g != nil {
			src = r.g.Series(r.arcs[int(rec.edge)+i])
		}
		events = append(events, src[sp.Start:sp.End]...)
		edges[i] = events[len(events)-int(sp.End-sp.Start) : len(events) : len(events)]
	}
	return Detection{
		Nodes:      slices.Clone(r.nodes[rec.node : rec.node+rec.nodes]),
		Edges:      edges,
		EdgeFlows:  slices.Clone(r.flows[rec.edge : rec.edge+rec.edges]),
		Flow:       rec.flow,
		Start:      rec.start,
		End:        rec.end,
		DetectedAt: rec.watermark,
	}
}
