package temporal

import (
	"fmt"
	"math"
	"sort"
)

// SatAdd returns a+b with saturation at the int64 extremes. Streaming and
// storage code uses it for window arithmetic (anchor ± δ) so sentinel
// timestamps at the extremes cannot wrap around.
func SatAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	if b < 0 && a < math.MinInt64-b {
		return math.MinInt64
	}
	return a + b
}

// SatSub returns a-b with saturation at the int64 extremes.
func SatSub(a, b int64) int64 { return SatAdd(a, -b) }

// WindowLog is the append/evict event store behind streaming ingestion
// (internal/stream): a time-ordered log of events over a sliding retention
// window. Appends must be non-decreasing in T (the stream contract);
// EvictBefore drops the expired prefix. Storage is a ring-style compacting
// buffer — eviction advances a head index and the backing array is reused
// once the dead prefix dominates, so steady-state ingestion allocates O(1)
// amortized per event regardless of stream length.
//
// A WindowLog is not safe for concurrent use; the stream engine serializes
// access.
type WindowLog struct {
	events []Event // retained events, time-ordered, live part events[head:]
	head   int     // evicted prefix length within events

	appended  int64 // events ever appended
	evicted   int64 // events ever evicted
	watermark int64 // largest T appended
	started   bool  // at least one event appended
}

// NewWindowLog returns an empty log.
func NewWindowLog() *WindowLog { return &WindowLog{} }

// Append adds one event. Events must arrive in non-decreasing timestamp
// order; an event older than the current watermark is rejected with an
// error and the log is unchanged. Append keeps only this order invariant:
// its callers admit each batch first (Gate.Admit, or CheckEvent for
// events read back from disk).
func (l *WindowLog) Append(e Event) error {
	if l.started && e.T < l.watermark {
		return fmt.Errorf("temporal: out-of-order event at t=%d behind watermark %d", e.T, l.watermark)
	}
	l.events = append(l.events, e)
	l.appended++
	l.watermark = e.T
	l.started = true
	return nil
}

// Prepend splices older history in front of the retained suffix: events
// the log evicted earlier, or — on a log fed from a broadcast stream —
// events an identical upstream log retained but this one never saw. Every
// event of the batch must be valid (CheckEvents); the spliced part must be
// time-ordered and must not reach past the current oldest retained event,
// since on a non-empty log events at or after OldestT are duplicates of
// retained ones and are dropped. The splice counts against the eviction
// counters (as if un-evicted), or against the append counter when the log
// never held the events, keeping the appended−evicted == retained
// invariant. Returns how many events were spliced in. On error the log is
// unchanged.
//
// Prepend exists for subscription re-placement (internal/cluster): the
// receiving engine's log holds the recent suffix of the shared broadcast
// stream, and the handoff's catch-up events supply exactly the older
// prefix the moved subscription still needs.
func (l *WindowLog) Prepend(events []Event) (int, error) {
	if err := CheckEvents(events); err != nil {
		return 0, fmt.Errorf("prepend: %w", err)
	}
	if len(events) == 0 {
		return 0, nil
	}
	cut := len(events)
	if oldest, ok := l.OldestT(); ok {
		cut = sort.Search(len(events), func(i int) bool { return events[i].T >= oldest })
	}
	prev := int64(math.MinInt64)
	for i := 0; i < cut; i++ {
		e := events[i]
		if e.T < prev {
			return 0, fmt.Errorf("temporal: prepend event %d out of order (t=%d after %d)", i, e.T, prev)
		}
		prev = e.T
	}
	if l.started && l.Len() == 0 && prev > l.watermark {
		return 0, fmt.Errorf("temporal: prepend reaches t=%d past watermark %d", prev, l.watermark)
	}
	if cut == 0 {
		return 0, nil
	}
	merged := make([]Event, 0, cut+l.Len())
	merged = append(merged, events[:cut]...)
	merged = append(merged, l.events[l.head:]...)
	l.events = merged
	l.head = 0
	if n := int64(cut); l.evicted >= n {
		l.evicted -= n
	} else {
		l.appended += n - l.evicted
		l.evicted = 0
	}
	if !l.started {
		l.watermark = prev
		l.started = true
	}
	return cut, nil
}

// EvictBefore drops every retained event with T < t and returns how many
// were dropped. The backing array is compacted once the dead prefix
// exceeds the live part, keeping memory proportional to the retention
// window.
func (l *WindowLog) EvictBefore(t int64) int {
	live := l.events[l.head:]
	n := sort.Search(len(live), func(i int) bool { return live[i].T >= t })
	if n == 0 {
		return 0
	}
	l.head += n
	l.evicted += int64(n)
	if l.head > len(l.events)-l.head {
		l.events = append(l.events[:0], l.events[l.head:]...)
		l.head = 0
	}
	return n
}

// Len returns the number of retained events.
func (l *WindowLog) Len() int { return len(l.events) - l.head }

// Watermark returns the largest appended timestamp; ok is false while the
// log has never seen an event.
func (l *WindowLog) Watermark() (t int64, ok bool) { return l.watermark, l.started }

// Appended and Evicted return lifetime counters.
func (l *WindowLog) Appended() int64 { return l.appended }

// Evicted returns the number of events dropped by EvictBefore calls.
func (l *WindowLog) Evicted() int64 { return l.evicted }

// OldestT returns the timestamp of the oldest retained event; ok is false
// when the log is empty.
func (l *WindowLog) OldestT() (t int64, ok bool) {
	if l.Len() == 0 {
		return 0, false
	}
	return l.events[l.head].T, true
}

// Range returns the retained events with lo <= T <= hi, time-ordered. The
// slice aliases log storage and is valid only until the next Append or
// EvictBefore.
func (l *WindowLog) Range(lo, hi int64) []Event {
	live := l.events[l.head:]
	i := sort.Search(len(live), func(k int) bool { return live[k].T >= lo })
	j := sort.Search(len(live), func(k int) bool { return live[k].T > hi })
	return live[i:j]
}

// WindowLogState is the serializable state of a WindowLog, used by the
// streaming engine's snapshot/recovery protocol (internal/stream,
// internal/store). Events holds the retained suffix only; the lifetime
// counters preserve eviction accounting across a restore.
type WindowLogState struct {
	Events    []Event `json:"events"`
	Appended  int64   `json:"appended"`
	Evicted   int64   `json:"evicted"`
	Watermark int64   `json:"watermark"`
	Started   bool    `json:"started"`
}

// State snapshots the log. The returned events are a copy; the caller may
// retain them across later Append/EvictBefore calls.
func (l *WindowLog) State() WindowLogState {
	return WindowLogState{
		Events:    append([]Event(nil), l.events[l.head:]...),
		Appended:  l.appended,
		Evicted:   l.evicted,
		Watermark: l.watermark,
		Started:   l.started,
	}
}

// NewWindowLogFromState rebuilds a log from a State snapshot, validating
// internal consistency (event order and flows, counter arithmetic, the
// watermark bound) so a corrupted snapshot cannot poison the engine.
func NewWindowLogFromState(s WindowLogState) (*WindowLog, error) {
	if s.Appended < 0 || s.Evicted < 0 || s.Appended-s.Evicted != int64(len(s.Events)) {
		return nil, fmt.Errorf("temporal: log state counters inconsistent: appended=%d evicted=%d retained=%d",
			s.Appended, s.Evicted, len(s.Events))
	}
	if !s.Started && (s.Appended != 0 || len(s.Events) != 0) {
		return nil, fmt.Errorf("temporal: log state not started but has %d appended events", s.Appended)
	}
	prev := int64(math.MinInt64)
	for i, e := range s.Events {
		if !validEvent(&e) {
			return nil, fmt.Errorf("log state event %d: %w", i, CheckEvent(e))
		}
		if e.T < prev {
			return nil, fmt.Errorf("temporal: log state event %d out of order (t=%d after %d)", i, e.T, prev)
		}
		prev = e.T
	}
	if len(s.Events) > 0 && s.Watermark < prev {
		return nil, fmt.Errorf("temporal: log state watermark %d behind last event t=%d", s.Watermark, prev)
	}
	return &WindowLog{
		events:    append([]Event(nil), s.Events...),
		appended:  s.Appended,
		evicted:   s.Evicted,
		watermark: s.Watermark,
		started:   s.Started,
	}, nil
}

// BuildGraph materializes the time-series graph of the events with
// lo <= T <= hi. Node ids are preserved, but the universe is trimmed to
// the largest id appearing in the range, so per-snapshot cost tracks the
// window's active nodes rather than every id the stream has ever seen
// (which only grows). The graph is an independent snapshot: later
// Append/EvictBefore calls do not affect it.
func (l *WindowLog) BuildGraph(lo, hi int64) (*Graph, error) {
	evs := l.Range(lo, hi)
	return NewGraphWithNodes(rangeUniverse(evs), evs)
}

// BuildGraphArena is BuildGraph through a reusable GraphArena: the stream
// engine's per-finalize-round snapshot path, where one graph per round is
// rebuilt over the union extent of all due anchor bands and the previous
// round's buffers are recycled. The returned graph is valid only until the
// arena's next build (see GraphArena).
func (l *WindowLog) BuildGraphArena(a *GraphArena, lo, hi int64) (*Graph, error) {
	evs := l.Range(lo, hi)
	return a.Build(rangeUniverse(evs), evs)
}

// rangeUniverse trims the node universe to the largest id appearing in the
// event range, so per-snapshot cost tracks the window's active nodes
// rather than every id the stream has ever seen (which only grows).
func rangeUniverse(evs []Event) int {
	n := 0
	for i := range evs {
		if v := int(evs[i].From) + 1; v > n {
			n = v
		}
		if v := int(evs[i].To) + 1; v > n {
			n = v
		}
	}
	return n
}
