package stream

// A finalize round's detections as records (DESIGN.md §11). sweepBand builds
// no Detection: it appends one record per admitted instance to slabs the
// engine owns and reuses across rounds, and emitPending hands the whole round
// to the sink in one drain. The package's serving sinks read the round whole
// (roundSink) and materialize only the detections they keep; any other sink
// receives every detection, materialized, in finalization order. A record's
// spans index the round's arena-backed snapshot, so every materialization
// happens inside emitPending, before the next round rebuilds the arena —
// ingestMu orders the two.

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
// mu; emitPending drains and resets it under ingestMu alone.
type detRound struct {
	g       *temporal.Graph // the round's snapshot: the records' spans index its series
	members []*subState     // the round's due members (roundScratch.members)
	recs    []detRecord
	nodes   []temporal.NodeID
	arcs    []int
	spans   []core.Span
	flows   []float64
	n       int // detections recorded: the sum of admitted

	// Drain memo, indexed like the round's detections: the detection handed
	// out for each, nil until its record is materialized.
	dets []*Detection
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
	r.recs, r.nodes, r.arcs, r.spans, r.flows, r.dets = r.recs[:0], r.nodes[:0], r.arcs[:0], r.spans[:0], r.flows[:0], r.dets[:0]
	r.n = 0
}

// emit drains the round to s (nil: discards it) and resets it — also when
// s panics, so that the next round starts empty rather than on records
// that index a recycled snapshot.
func (r *detRound) emit(s Sink) {
	defer r.reset()
	if s != nil {
		r.dets = slices.Grow(r.dets[:0], r.n)[:r.n]
		drain(s, r)
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
// memo's: valid until the drain ends.
func (r *detRound) tail(k int) []*Detection {
	lo := max(r.n-k, 0)
	ri := sort.Search(len(r.recs), func(i int) bool { return r.recs[i].first+int(r.recs[i].admitted) > lo })
	for ; ri < len(r.recs); ri++ {
		r.detection(ri, max(lo-r.recs[ri].first, 0))
	}
	return r.dets[lo:r.n]
}

// buildPayload copies a record's instance out of the round's slabs and
// snapshot into the arrays its detections share, in four allocations: the
// node binding, the edge flows, one events array, and its cut per edge.
func (r *detRound) buildPayload(rec *detRecord) Detection {
	arcs := r.arcs[rec.edge : rec.edge+rec.edges]
	spans := r.spans[rec.edge : rec.edge+rec.edges]
	n := 0
	for _, sp := range spans {
		n += int(sp.End - sp.Start)
	}
	events := make([]temporal.Point, 0, n)
	edges := make([][]temporal.Point, len(arcs))
	for i, a := range arcs {
		sp := spans[i]
		events = append(events, r.g.Series(a)[sp.Start:sp.End]...)
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
