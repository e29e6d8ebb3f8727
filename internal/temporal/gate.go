package temporal

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The stream contract (Kosyfaki et al. §3–4: time-ordered events with
// positive flow) is stated once, here, for every layer that admits events:
// validEvent is the validity rule, InTimeOrder the batch order and Gate the
// frontier. As every admitting layer orders a batch with the one
// InTimeOrder, the WAL records exactly the sequence the engine processed.

var (
	// ErrInvalidEvent is wrapped by every refusal of an event with a
	// negative node id or a flow that is not positive and finite.
	ErrInvalidEvent = errors.New("temporal: invalid event")
	// ErrBehindFrontier is wrapped by every refusal of a batch that
	// reaches behind a gate's frontier.
	ErrBehindFrontier = errors.New("temporal: batch behind the stream frontier")
)

// validEvent is the validity rule: non-negative endpoints and a positive
// finite flow. It inlines, so per-event loops test it and call CheckEvent
// only to build the refusal.
func validEvent(e *Event) bool {
	return e.From >= 0 && e.To >= 0 && e.F > 0 && e.F <= math.MaxFloat64
}

// CheckEvent applies the rule to one event; its refusal wraps ErrInvalidEvent.
func CheckEvent(e Event) error {
	if validEvent(&e) {
		return nil
	}
	return fmt.Errorf("%w %d→%d at t=%d: node ids must be non-negative and flow positive and finite (got f=%v)",
		ErrInvalidEvent, e.From, e.To, e.T, e.F)
}

// CheckEvents applies the rule to a batch, naming the first offender.
func CheckEvents(batch []Event) error {
	for i := range batch {
		if !validEvent(&batch[i]) {
			return fmt.Errorf("batch event %d: %w", i, CheckEvent(batch[i]))
		}
	}
	return nil
}

// InTimeOrder returns events stably sorted by T. A batch already in order
// (the common monotone-producer case) is returned as is and only read;
// otherwise the ordered copy is built in *scratch, which is grown and kept
// for reuse (nil allocates a fresh copy). *scratch may be events itself:
// the batch is then sorted in place.
func InTimeOrder(events []Event, scratch *[]Event) []Event {
	byT := func(a, b Event) int { return cmp.Compare(a.T, b.T) }
	if slices.IsSortedFunc(events, byT) {
		return events
	}
	var batch []Event
	if scratch != nil {
		batch = (*scratch)[:0]
	}
	batch = append(batch, events...)
	slices.SortStableFunc(batch, byT)
	if scratch != nil {
		*scratch = batch
	}
	return batch
}

// Gate is a stream's admission gate: it holds the next admissible
// timestamp. Admit refuses a batch whole if it reaches behind the frontier
// or holds an invalid event; its owner moves the frontier with Advance
// once a batch is applied and with Flushed after a flush. The stream
// engine, the cluster coordinator and the event store each hold one; the
// owner serializes access.
type Gate struct{ next int64 }

// OpenGate returns a gate that has admitted nothing yet.
func OpenGate() Gate { return Gate{next: math.MinInt64} }

// Next returns the smallest admissible timestamp (math.MinInt64 before the
// first batch).
func (g *Gate) Next() int64 { return g.next }

// Admit returns the batch in time order (see InTimeOrder for events and
// scratch) if every event is valid and none is behind the frontier;
// otherwise it refuses the batch whole, wrapping ErrBehindFrontier or
// ErrInvalidEvent. It does not move the frontier.
func (g *Gate) Admit(events []Event, scratch *[]Event) ([]Event, error) {
	batch := InTimeOrder(events, scratch)
	if len(batch) > 0 && batch[0].T < g.next {
		return nil, fmt.Errorf("%w: batch reaches back to t=%d, frontier is %d", ErrBehindFrontier, batch[0].T, g.next)
	}
	if err := CheckEvents(batch); err != nil {
		return nil, err
	}
	return batch, nil
}

// Advance raises the frontier to t, the newest timestamp applied (or a
// restored snapshot's Next); it never moves the frontier back.
func (g *Gate) Advance(t int64) { g.next = max(g.next, t) }

// Flushed applies the post-flush rule: once a flush at watermark w has
// closed every open window, an event at or before w + maxDelta could land
// inside one of them, so the frontier moves past it.
func (g *Gate) Flushed(w, maxDelta int64) { g.Advance(SatAdd(w, SatAdd(maxDelta, 1))) }
