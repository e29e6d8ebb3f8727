package cluster

import (
	"sort"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/temporal"
)

// logEntry is one appended batch. Events are immutable once appended
// (IngestTraced admits a private sorted copy), so replicators read them
// outside the coordinator lock; trimming only reslices the header.
type logEntry struct {
	events []temporal.Event
	// end counts the events appended through this entry since the first
	// batch, so "events after seq s" is one subtraction.
	end int64
	// appendedAt is the wall-clock of the append, the baseline of the
	// per-member append→ack replication-lag histogram.
	appendedAt time.Time
	// sc is the batch's "ingest.append" span context: replication
	// deliveries parent their spans on it and forward it to the member
	// (Batch.Traceparent), so member-side spans join the batch trace.
	sc obs.SpanContext
}

// streamLog is the coordinator's one log of the stream (DESIGN.md §9–10):
// dense seq-numbered entries first..head that are at once the replication
// queue and the failover history. Entries past acked (the slowest live
// member's acked seq) are still being delivered; entries up to it are the
// history a re-placed subscription is regenerated from, bounded by limit
// (HistoryLimit, 0: unbounded). No other file indexes entries; the
// coordinator serializes every call under its mu.
type streamLog struct {
	entries []logEntry
	first   int64 // seq of entries[0]; head+1 while empty
	acked   int64 // history boundary
	dropped int64 // events the bound cut off the history head
	limit   int
}

// head is the newest appended seq (0 before any append).
func (l *streamLog) head() int64 { return l.first + int64(len(l.entries)) - 1 }

// entry returns a retained entry: any seq past acked, so a replicator may
// always ask for the ones after its own acked seq.
func (l *streamLog) entry(seq int64) *logEntry { return &l.entries[seq-l.first] }

// endAt is entry seq's end count; seqs below the retained entries read
// dropped, so differences count retained events only.
func (l *streamLog) endAt(seq int64) int64 {
	if seq < l.first {
		return l.dropped
	}
	return l.entry(seq).end
}

// lagEvents counts the retained events after seq (a member's replication
// lag in events when seq is its acked seq).
func (l *streamLog) lagEvents(seq int64) int64 { return l.endAt(l.head()) - l.endAt(seq) }

// historyEvents counts the retained history's events.
func (l *streamLog) historyEvents() int64 { return l.endAt(l.acked) - l.dropped }

// append adds one batch and returns its seq.
func (l *streamLog) append(events []temporal.Event, at time.Time, sc obs.SpanContext) int64 {
	end := l.endAt(l.head()) + int64(len(events))
	l.entries = append(l.entries, logEntry{events: events, end: end, appendedAt: at, sc: sc})
	return l.head()
}

// coalesce returns the events of the entries after seq that fit in
// maxEvents (at least one entry: its own slice, else a fresh one) and the
// last seq they cover.
func (l *streamLog) coalesce(seq int64, maxEvents int) ([]temporal.Event, int64) {
	base, last := l.endAt(seq), seq+1
	for last < l.head() && l.entry(last+1).end-base <= int64(maxEvents) {
		last++
	}
	if last == seq+1 {
		return l.entry(last).events, last
	}
	evs := make([]temporal.Event, 0, l.entry(last).end-base)
	for s := seq + 1; s <= last; s++ {
		evs = append(evs, l.entry(s).events...)
	}
	return evs, last
}

// trim moves the history boundary up to minAcked and applies the bound:
// when the history holds more than limit events, the limit-th event from
// the end fixes the new first timestamp t0 and every event before t0 is
// dropped — whole entries, then a prefix of the oldest survivor. Events
// at t0 all stay (a re-placed subscription re-enumerates from anchor t0),
// so the history may exceed the bound by that timestamp's remainder.
func (l *streamLog) trim(minAcked int64) {
	l.acked = max(l.acked, minAcked)
	cut := l.historyEvents() - int64(l.limit)
	if l.limit <= 0 || cut <= 0 {
		return
	}
	i := 0
	for ; cut >= int64(len(l.entries[i].events)); i++ {
		cut -= int64(len(l.entries[i].events))
	}
	t0 := l.entries[i].events[cut].T
	n := 0 // leading entries wholly before t0
	for n < i && l.entries[n].events[len(l.entries[n].events)-1].T < t0 {
		n++
	}
	clear(l.entries[:n])
	l.entries, l.first = l.entries[n:], l.first+int64(n)
	e := &l.entries[0]
	e.events = e.events[sort.Search(len(e.events), func(j int) bool { return e.events[j].T >= t0 }):]
	l.dropped = e.end - int64(len(e.events))
}

// catchup flattens the history into a fresh slice.
func (l *streamLog) catchup() []temporal.Event {
	out := make([]temporal.Event, 0, l.historyEvents())
	for seq := l.first; seq <= l.acked; seq++ {
		out = append(out, l.entry(seq).events...)
	}
	return out
}
