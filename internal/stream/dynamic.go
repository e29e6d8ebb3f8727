package stream

import (
	"errors"
	"fmt"
	"math"
	"time"

	"flowmotif/internal/temporal"
)

// AddOptions parameterizes a runtime AddSubscription, carrying the handoff
// state when the subscription is moving from another engine fed by the
// same broadcast stream (internal/cluster re-placement).
type AddOptions struct {
	// Catchup is older stream history this engine's retention log no
	// longer holds (or, on a fresh member, never saw): time-ordered events
	// of the same stream, covering everything from the subscription's
	// needed horizon (Emitted+1−δ) up to where the engine's own retained
	// suffix begins. Events at or after the engine's oldest retained
	// timestamp are duplicates of retained ones and are dropped; the rest
	// are spliced in front of the log (temporal.WindowLog.Prepend).
	Catchup []temporal.Event
	// Emitted primes the subscription's finalization bound: anchors at or
	// before Emitted are treated as already finalized (and emitted)
	// elsewhere. Only honoured with Primed set.
	Emitted int64
	// Primed marks Emitted as valid. An unprimed add onto a started engine
	// subscribes "from now on": the bound primes at the current watermark,
	// so only windows anchored after it are ever reported.
	Primed bool
}

// AddSubscription registers a subscription at runtime. With zero AddOptions
// on a started engine the subscription observes the stream from the
// current watermark onward; with handoff state (Catchup/Emitted/Primed) it
// resumes exactly where it left off on the engine it moved from, and any
// bands the move left closed-but-unenumerated are finalized immediately
// (their detections reach the sink before AddSubscription returns).
// Validation is all-or-nothing: on error the engine is unchanged.
func (e *Engine) AddSubscription(sub Subscription, opts AddOptions) error {
	var arrived time.Time
	if e.mx != nil {
		arrived = time.Now()
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.mu.Lock()
	if err := e.failedLocked(); err != nil {
		// A fail-stopped engine must not finalize bands over its diverged
		// log on behalf of the newcomer (see ErrFailStopped).
		e.mu.Unlock()
		return fmt.Errorf("stream: add subscription: %w", err)
	}
	// The catch-up finalize below drains through emitPending; its
	// detections' lag is measured from this call's arrival.
	e.arrivedAt = arrived

	s, err := e.newSubState(sub)
	if err != nil {
		e.mu.Unlock()
		return fmt.Errorf("stream: add subscription: %w", err)
	}
	if n, err := e.log.Prepend(opts.Catchup); err != nil {
		e.mu.Unlock()
		return fmt.Errorf("stream: add subscription %q: catchup: %w", s.sub.ID, err)
	} else if n > 0 {
		// The splice may have established the stream frontier on a log that
		// had never seen an event: sync the admissibility bound and prime
		// any subscription that predates the (now known) start of history.
		w, _ := e.log.Watermark()
		e.gate.Advance(w)
		first := opts.Catchup[0].T
		for _, have := range e.subs {
			if !have.primed {
				have.emitted = satSub(first, 1)
				have.primed = true
			}
		}
	}
	switch {
	case opts.Primed:
		s.emitted = opts.Emitted
		s.primed = true
	default:
		if w, ok := e.log.Watermark(); ok {
			s.emitted = w
			s.primed = true
		}
	}
	e.enterGroupLocked(s)
	// Finalize any bands the handoff left closed-but-unenumerated. Every
	// other subscription's emitted bound already sits at the current
	// watermark's closed-band frontier, so a full planner round no-ops for
	// them and evaluates exactly the new subscription — sharing its
	// shape-mates' plan group from the next ingest onward.
	e.finalize(false)
	e.evict()
	e.emitPending() // unlocks mu
	return nil
}

// RemovedSub is the handoff state of a removed subscription: everything
// another engine fed by the same broadcast stream needs to resume it via
// AddSubscription without losing or duplicating a single instance.
type RemovedSub struct {
	Sub     Subscription
	Emitted int64
	Primed  bool
	// Detections and Bands are the lifetime counters at removal time
	// (informational).
	Detections int64
	Bands      int64
	// Events are the retained events the subscription still needed — the
	// open windows' frontier (Emitted+1−δ onward). They become the Catchup
	// of the receiving engine's AddOptions.
	Events []temporal.Event
}

// ErrUnknownSubscription is returned by RemoveSubscription for ids the
// engine does not serve; test with errors.Is.
var ErrUnknownSubscription = errors.New("stream: unknown subscription")

// RemoveSubscription unregisters a subscription at runtime and returns its
// handoff state. Events only the removed subscription still needed are
// evicted before returning, so dropping a long-δ subscription releases its
// retention immediately.
func (e *Engine) RemoveSubscription(id string) (RemovedSub, error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.failedLocked(); err != nil {
		// The handoff would export events from the diverged log as the
		// receiver's catch-up, re-infecting a healthy engine.
		return RemovedSub{}, fmt.Errorf("stream: remove subscription: %w", err)
	}
	idx := -1
	for i, s := range e.subs {
		if s.sub.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return RemovedSub{}, fmt.Errorf("%w: %q", ErrUnknownSubscription, id)
	}
	s := e.subs[idx]
	out := RemovedSub{
		Sub:        s.sub,
		Emitted:    s.emitted,
		Primed:     s.primed,
		Detections: s.detections,
		Bands:      s.bands,
	}
	if s.primed {
		need := satSub(satAdd(s.emitted, 1), s.sub.Delta)
		out.Events = append([]temporal.Event(nil), e.log.Range(need, math.MaxInt64)...)
	}
	e.subs = append(e.subs[:idx], e.subs[idx+1:]...)
	e.leaveGroupLocked(s)
	e.maxDelta = 0
	for _, rest := range e.subs {
		if rest.sub.Delta > e.maxDelta {
			e.maxDelta = rest.sub.Delta
		}
	}
	e.evict()
	return out, nil
}
