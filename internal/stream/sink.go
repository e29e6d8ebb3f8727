package stream

import (
	"cmp"
	"container/heap"
	"slices"
	"sort"
	"sync"
)

// FuncSink adapts a function to the Sink interface.
type FuncSink func(d *Detection)

// Emit implements Sink.
func (f FuncSink) Emit(d *Detection) { f(d) }

// MultiSink fans every detection out to each child sink in order. Draining
// a round, it hands the round to each child in turn, and children that keep
// the same detection receive one shared *Detection for it.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(d *Detection) {
	for _, s := range m {
		s.Emit(d)
	}
}

func (m MultiSink) emitRound(r *detRound) {
	for _, s := range m {
		drain(s, r)
	}
}

// MemorySink retains the most recent detections in a bounded ring buffer,
// for "what fired lately" queries (flowmotifd's GET /instances). It is
// safe for concurrent use. A drained round that fills the ring by itself
// replaces it whole, so the sink keeps it as records — the round's last
// capacity ones, copied out of the round — and builds their detections
// only when the ring is next read or written; a round the next one
// replaces unread costs a copy, not a build.
type MemorySink struct {
	size  int // cap(ring), readable without mu
	mu    sync.Mutex
	ring  []*Detection
	next  int
	total int64
	// pending is the last full round's tail when the ring holds nothing
	// else, until settleLocked builds it into the ring; spare is a tail
	// buffer the next such round copies into, outside mu. Both are
	// reused, so a warm sink allocates nothing for an unread round.
	pending, spare *detRound
}

// NewMemorySink retains up to capacity detections (minimum 1).
func NewMemorySink(capacity int) *MemorySink {
	if capacity < 1 {
		capacity = 1
	}
	return &MemorySink{size: capacity, ring: make([]*Detection, 0, capacity)}
}

// Emit implements Sink.
func (m *MemorySink) Emit(d *Detection) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	m.pushLocked(d)
	m.total++
}

// emitRound keeps the round's last detections that fit the ring and counts
// all of them; a reader sees the round entirely or not at all. A round
// smaller than the ring is materialized before the lock is taken and
// pushed. A larger one is copied, outside the lock, into the spare tail,
// which publishRound makes the pending one after the drain.
func (m *MemorySink) emitRound(r *detRound) {
	if r.n >= m.size {
		m.mu.Lock()
		t := m.spare
		m.spare = nil
		m.mu.Unlock()
		if t == nil {
			t = new(detRound)
		}
		r.copyTail(t, m.size)
		r.tails = append(r.tails, roundTail{m, t})
		return
	}
	keep := r.tail(m.size)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	for _, d := range keep {
		m.pushLocked(d)
	}
	m.total += int64(r.n)
}

// publishRound replaces the ring with the tail t of a round of n
// detections, and keeps the tail it replaces, unread or settled, as the
// spare.
func (m *MemorySink) publishRound(t *detRound, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.ring)
	m.ring, m.next = m.ring[:0], 0
	m.pending, m.spare = t, m.pending
	m.total += int64(n)
}

// settleLocked builds the pending tail's detections into the ring, which
// holds nothing else, once: every method that reads or writes the ring
// calls it first.
func (m *MemorySink) settleLocked() {
	p := m.pending
	if p == nil || p.n == 0 {
		return
	}
	for ri := range p.recs {
		for j := range int(p.recs[ri].admitted) {
			m.pushLocked(p.detection(ri, j))
		}
	}
	p.reset()
}

func (m *MemorySink) pushLocked(d *Detection) {
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, d)
	} else {
		m.ring[m.next] = d
		m.next = (m.next + 1) % cap(m.ring)
	}
}

// Total returns the number of detections ever emitted to the sink.
func (m *MemorySink) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Recent returns up to limit retained detections (limit <= 0: all),
// newest first, optionally filtered by subscription id (empty: all).
func (m *MemorySink) Recent(sub string, limit int) []*Detection {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	var out []*Detection
	n := len(m.ring)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently written slot.
		d := m.ring[((m.next-1-i)%n+n)%n]
		if sub != "" && d.Sub != sub {
			continue
		}
		out = append(out, d)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// RemoveSub drops every retained detection of one subscription and
// returns them oldest-first — the recent-ring half of a subscription
// handoff (internal/cluster re-placement). Total is reduced accordingly.
func (m *MemorySink) RemoveSub(sub string) []*Detection {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	var removed, kept []*Detection
	n := len(m.ring)
	for i := 0; i < n; i++ {
		// Walk forwards from the oldest retained slot.
		d := m.ring[(m.next+i)%n]
		if d.Sub == sub {
			removed = append(removed, d)
		} else {
			kept = append(kept, d)
		}
	}
	// Compacted oldest-first with next=0, the ring stays consistent: Emit
	// appends until full, then overwrites slot 0 — the oldest entry.
	m.ring = append(m.ring[:0], kept...)
	m.next = 0
	m.total -= int64(len(removed))
	return removed
}

// Inject splices handed-off detections (oldest-first) in as the sink's
// oldest entries, keeping at most capacity overall (newest win).
func (m *MemorySink) Inject(ds []*Detection) {
	if len(ds) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	merged := make([]*Detection, 0, len(ds)+len(m.ring))
	merged = append(merged, ds...)
	n := len(m.ring)
	for i := 0; i < n; i++ {
		merged = append(merged, m.ring[(m.next+i)%n])
	}
	if c := cap(m.ring); len(merged) > c {
		merged = merged[len(merged)-c:]
	}
	m.ring = append(m.ring[:0], merged...)
	m.next = 0
	m.total += int64(len(ds))
}

// MemorySinkState is the serializable content of a MemorySink (detections
// oldest-first), part of the flowmotifd snapshot payload.
type MemorySinkState struct {
	Detections []*Detection `json:"detections"`
	Total      int64        `json:"total"`
}

// Snapshot captures the retained detections, oldest first.
func (m *MemorySink) Snapshot() MemorySinkState {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settleLocked()
	st := MemorySinkState{Total: m.total}
	n := len(m.ring)
	for i := 0; i < n; i++ {
		// Walk forwards from the oldest retained slot.
		st.Detections = append(st.Detections, m.ring[(m.next+i)%n])
	}
	return st
}

// Restore replaces the sink content with a snapshot, keeping the sink's
// own capacity (only the newest detections are retained if it is smaller
// than the snapshot's).
func (m *MemorySink) Restore(st MemorySinkState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending != nil {
		m.pending.reset()
	}
	m.ring = m.ring[:0]
	m.next = 0
	ds := st.Detections
	if c := cap(m.ring); len(ds) > c {
		ds = ds[len(ds)-c:]
	}
	m.ring = append(m.ring, ds...)
	m.total = st.Total
}

// TopKSink keeps, per subscription, the k detections with the highest
// instance flow seen so far (ties broken towards earlier Start, then
// earlier End, for determinism). It is safe for concurrent use.
type TopKSink struct {
	k int
	// drainMu serializes the writers (a round drain, Emit, RemoveSub,
	// Inject, Restore) and is taken before mu. Holding it, a round drain
	// reads subs without mu and takes mu once, only to update the heaps.
	drainMu sync.Mutex
	mu      sync.Mutex // guards subs
	subs    map[string]*detHeap
	// Round drain scratch (drainMu): each due member's bar at round start,
	// and the round's detections that clear it.
	bars []topBar
	keep []*Detection
}

// topBar is what a subscription's detection must beat at the start of a
// round drain: its k-th best, once it has k (full).
type topBar struct {
	seen, full bool
	root       rank
}

// NewTopKSink keeps the best k detections per subscription (minimum 1).
func NewTopKSink(k int) *TopKSink {
	if k < 1 {
		k = 1
	}
	return &TopKSink{k: k, subs: map[string]*detHeap{}}
}

// Emit implements Sink.
func (t *TopKSink) Emit(d *Detection) {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(d)
}

func (t *TopKSink) emitLocked(d *Detection) {
	h := t.subs[d.Sub]
	if h == nil {
		h = &detHeap{}
		t.subs[d.Sub] = h
	}
	if h.Len() < t.k {
		heap.Push(h, d)
		return
	}
	if detLess((*h)[0], d) {
		(*h)[0] = d
		heap.Fix(h, 0)
	}
}

// emitRound feeds emitLocked, in finalization order, the round's
// detections that beat their subscription's k-th best at round start (all
// of them while it holds fewer than k). The k-th best only rises while a
// round is emitted, so the detections skipped are ones per-detection Emit
// would reject, and each heap ends as Emit leaves it, ties included. The
// detections fed are built before mu is taken, and a reader sees the round
// entirely or not at all.
func (t *TopKSink) emitRound(r *detRound) {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	bars := slices.Grow(t.bars[:0], len(r.members))[:len(r.members)]
	clear(bars)
	keep := t.keep[:0]
	for ri := range r.recs {
		rec := &r.recs[ri]
		rk := rank{rec.flow, rec.start, rec.end}
		for j := range int(rec.admitted) {
			b := &bars[int(rec.sub)+j]
			if !b.seen {
				b.seen = true
				if h := t.subs[r.members[int(rec.sub)+j].sub.ID]; h != nil && h.Len() >= t.k {
					b.full, b.root = true, rankOf((*h)[0])
				}
			}
			if !b.full || b.root.less(rk) {
				keep = append(keep, r.detection(ri, j))
			}
		}
	}
	t.mu.Lock()
	for _, d := range keep {
		t.emitLocked(d)
	}
	t.mu.Unlock()
	clear(keep)
	t.bars, t.keep = bars, keep[:0]
}

// Top returns the retained detections of a subscription, best first.
func (t *TopKSink) Top(sub string) []*Detection {
	t.mu.Lock()
	h := t.subs[sub]
	out := make([]*Detection, 0)
	if h != nil {
		out = append(out, (*h)...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return detLess(out[j], out[i]) })
	return out
}

// RemoveSub drops one subscription's retained detections and returns them
// best-first — the top-k half of a subscription handoff.
func (t *TopKSink) RemoveSub(sub string) []*Detection {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.Lock()
	h := t.subs[sub]
	delete(t.subs, sub)
	var out []*Detection
	if h != nil {
		out = append(out, (*h)...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return detLess(out[j], out[i]) })
	return out
}

// Inject re-ranks handed-off detections under the sink's own k. Since k is
// a per-subscription bound, moving a subscription's full top list between
// sinks of equal k is lossless.
func (t *TopKSink) Inject(ds []*Detection) {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range ds {
		t.emitLocked(d)
	}
}

// TopKSinkState maps subscription id to its retained detections,
// best-first, part of the flowmotifd snapshot payload.
type TopKSinkState map[string][]*Detection

// Snapshot captures the retained detections per subscription, best first.
func (t *TopKSink) Snapshot() TopKSinkState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TopKSinkState{}
	for sub, h := range t.subs {
		out := append([]*Detection(nil), (*h)...)
		sort.Slice(out, func(i, j int) bool { return detLess(out[j], out[i]) })
		st[sub] = out
	}
	return st
}

// Restore replaces the sink content with a snapshot, re-ranking under the
// sink's own k (the weakest detections are dropped if it is smaller than
// the snapshot's).
func (t *TopKSink) Restore(st TopKSinkState) {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.subs = map[string]*detHeap{}
	for _, ds := range st {
		for _, d := range ds {
			t.emitLocked(d)
		}
	}
}

// CompareRank is the one top-k order, TopKSink's and the cluster merge's:
// higher flow ranks first, then earlier Start, then earlier End. It
// returns a negative number when a ranks above b, zero when they tie, and
// a positive number when a ranks below b.
func CompareRank(a, b *Detection) int { return rankOf(a).compare(rankOf(b)) }

// detLess orders detections worst-first (heap order): a ranks below b.
func detLess(a, b *Detection) bool { return rankOf(a).less(rankOf(b)) }

// rank is what CompareRank compares.
type rank struct {
	flow       float64
	start, end int64
}

func rankOf(d *Detection) rank { return rank{d.Flow, d.Start, d.End} }

func (a rank) compare(b rank) int {
	return cmp.Or(cmp.Compare(b.flow, a.flow), cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end))
}

// less reports that a ranks below b.
func (a rank) less(b rank) bool { return a.compare(b) > 0 }

// detHeap is a min-heap under detLess (the root is the weakest retained
// detection).
type detHeap []*Detection

func (h detHeap) Len() int            { return len(h) }
func (h detHeap) Less(i, j int) bool  { return detLess(h[i], h[j]) }
func (h detHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *detHeap) Push(x interface{}) { *h = append(*h, x.(*Detection)) }
func (h *detHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
