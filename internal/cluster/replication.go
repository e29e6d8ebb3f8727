package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/temporal"
)

// This file is the asynchronous replication pipeline behind
// Coordinator.Ingest (DESIGN.md §10). Ingest validates a batch, appends it
// to the sequence-numbered replication log, and acknowledges immediately;
// one replicator goroutine per member drains the log concurrently,
// coalescing a backlog into larger member calls, retrying transport
// failures (safe: batches are seq-tagged and members deduplicate resends),
// and recording the acked sequence/watermark the coordinator trims the log
// and reports replication lag by. A member whose replicator exhausts its
// retries is flagged failed and reaped — marked down with its
// subscriptions regenerated onto survivors from history — at the next
// mutating operation (or promptly by a background reap), so a flapping
// member degrades to catch-up instead of stalling every other shard.

// logEntry is one appended batch in the replication log. Events are
// immutable once appended (validateBatch returns a private sorted copy),
// so replicators may read them outside the coordinator lock.
type logEntry struct {
	seq    int64 // 1-based, dense
	events []temporal.Event
	// appendedAt is the wall-clock of the log append, the baseline of the
	// per-member append→ack replication-lag histogram.
	appendedAt time.Time
	// sc is the batch's "ingest.append" span context: replication
	// deliveries parent their spans on it and forward it to the member
	// (Batch.Traceparent), so member-side spans join the batch trace.
	sc obs.SpanContext
}

// entryLocked returns the log entry with the given sequence number. The
// caller holds mu and must only ask for seqs at or above the trim point
// (every non-failed member's ackedSeq is, by construction).
func (c *Coordinator) entryLocked(seq int64) *logEntry {
	return &c.repl[seq-c.replBase]
}

// pipelineFullLocked reports whether some live member's unacked backlog
// has reached the configured queue depth — the backpressure condition
// that blocks Ingest. Failed members are excluded: they no longer drain
// the log and must not wedge the pipeline while awaiting reap.
func (c *Coordinator) pipelineFullLocked() bool {
	for _, ms := range c.members {
		if ms.failed || ms.stopped {
			continue
		}
		if c.headSeq-ms.ackedSeq >= int64(c.maxPending) {
			return true
		}
	}
	return false
}

// replicate is one member's replication loop: it waits for log entries
// past the member's acked sequence, coalesces a contiguous run of them
// into a single tagged batch (bounded by CoalesceEvents), delivers it
// with retries, and records the ack. It exits when the member is stopped
// (removed, reaped, or the coordinator closed) or when delivery fails
// terminally (the member is then flagged for reap).
//
//flowmotif:hotpath
func (c *Coordinator) replicate(ms *memberState) {
	defer close(ms.done)
	for {
		c.mu.Lock()
		for !ms.stopped && !ms.failed && ms.ackedSeq >= c.headSeq {
			c.cond.Wait()
		}
		if ms.stopped || ms.failed {
			c.mu.Unlock()
			return
		}
		// Coalesce entries [ackedSeq+1, last] into one member call. A lone
		// entry ships its (immutable) slice as-is; a backlog is flattened
		// into a fresh slice so per-call engine overhead (band graphs,
		// sorting, locking) amortizes over the whole run.
		first := ms.ackedSeq + 1
		seq := first
		e := c.entryLocked(seq)
		evs := e.events
		n := len(evs)
		copied := false
		for seq < c.headSeq {
			next := c.entryLocked(seq + 1)
			if n+len(next.events) > c.coalesce {
				break
			}
			if !copied {
				evs = append(append(make([]temporal.Event, 0, n+len(next.events)), evs...), next.events...)
				copied = true
			} else {
				evs = append(evs, next.events...)
			}
			n += len(next.events)
			seq++
		}
		// The delivery span parents on the *newest* coalesced entry's
		// append span (a backlog folds several batch traces into one call;
		// the older entries keep their coordinator-side spans but their
		// member-side subtree lands under the newest trace — see DESIGN.md
		// §13). The older entries' trace IDs ride the span as the
		// coalesced_traces attribute so a stitched tree still names the
		// ingest ancestry it folded in. Read under mu: the log may be
		// trimmed once released.
		parent := c.entryLocked(seq).sc
		var coalescedTraces []string
		if parent.Valid() {
			for s := first; s < seq; s++ {
				if t := c.entryLocked(s).sc.Trace; t != "" {
					coalescedTraces = append(coalescedTraces, t)
				}
			}
		}
		c.mu.Unlock()

		c.mxCoalesce.Observe(float64(n))
		var dsp *obs.TraceSpan
		if c.tracer != nil {
			dsp = c.spanIf("replicate.deliver", parent,
				obs.L("member", ms.m.ID()),
				obs.L("seq", strconv.FormatInt(seq, 10)),
				obs.L("events", strconv.Itoa(n)))
			if seq > first {
				dsp.Annotate(obs.L("coalesced_batches", strconv.FormatInt(seq-first+1, 10)))
				if len(coalescedTraces) > 0 {
					dsp.Annotate(obs.L("coalesced_traces", strings.Join(coalescedTraces, ",")))
				}
			}
		}
		var t0 time.Time
		if c.mxDeliver != nil {
			t0 = time.Now()
		}
		ack, err := c.deliver(ms, Batch{Seq: seq, Events: evs, Traceparent: traceparentOf(dsp.Context())})
		if c.mxDeliver != nil {
			c.mxDeliver.ObserveExemplar(time.Since(t0).Seconds(), parent.Trace)
		}
		if err != nil {
			dsp.Annotate(obs.L("error", err.Error()))
		}
		dsp.End()
		var now time.Time
		if c.mxReplLag != nil {
			now = time.Now()
		}

		c.mu.Lock()
		if ms.stopped {
			c.mu.Unlock()
			return
		}
		if err != nil {
			ms.failed = true
			ms.failErr = err
			c.failedCount++
			c.cond.Broadcast()
			c.mu.Unlock()
			// Prompt failover even when no mutating call is imminent; the
			// reap is idempotent, so racing with an Ingest-side reap is fine.
			go c.reapAsync()
			return
		}
		// The acked entries are still in the log: trimming needs every live
		// member past them, and this member's own ack only lands below.
		if c.mxReplLag != nil {
			for s := first; s <= seq; s++ {
				e := c.entryLocked(s)
				c.mxReplLag.ObserveExemplar(now.Sub(e.appendedAt).Seconds(), e.sc.Trace)
			}
		}
		ms.ackedSeq = seq
		ms.ackedW = ack.Watermark
		c.trimLogLocked()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// deliver sends one tagged batch to a member, retrying transport failures
// up to 1+retries times. Resending the identical tagged batch is safe:
// a member that applied it but lost the ack answers the resend with a
// duplicate no-op ack (the idempotency the seq tag buys — the old
// broadcast path had to mark such members down as potentially diverged).
// Semantic rejections are terminal: the coordinator validated the batch,
// so a member rejecting it has diverged from the shared admission rules.
func (c *Coordinator) deliver(ms *memberState, b Batch) (IngestAck, error) {
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.retryDelay)
			c.mu.Lock()
			stopped := ms.stopped
			c.mu.Unlock()
			if stopped {
				break
			}
		}
		var ack IngestAck
		ack, err = ms.m.Ingest(b)
		if err == nil {
			return ack, nil
		}
		if !errors.Is(err, ErrMemberDown) {
			return IngestAck{}, fmt.Errorf("cluster: member %s rejected replicated batch seq %d: %w",
				ms.m.ID(), b.Seq, err)
		}
	}
	return IngestAck{}, err
}

// trimLogLocked moves log entries every live member has acked into the
// flat failover history (itself bounded by HistoryLimit), releasing the
// pipeline's memory as members catch up. Failed members are excluded:
// they are about to be reaped and regenerate from history, not the log.
// The caller holds mu.
func (c *Coordinator) trimLogLocked() {
	min := c.headSeq
	for _, ms := range c.members {
		if ms.failed {
			continue
		}
		if ms.ackedSeq < min {
			min = ms.ackedSeq
		}
	}
	trimmed := false
	for len(c.repl) > 0 && c.repl[0].seq <= min {
		c.history = append(c.history, c.repl[0].events...)
		c.logEvents -= len(c.repl[0].events)
		c.repl[0].events = nil
		c.repl = c.repl[1:]
		c.replBase++
		trimmed = true
	}
	if len(c.repl) == 0 {
		c.repl = nil
		c.replBase = c.headSeq + 1
	}
	if trimmed {
		c.trimHistoryLocked()
	}
}

// drainLocked blocks until every live member has applied and acked the
// whole replication log. Members flagged failed are excluded from the
// barrier (their replicators have exited); the caller reaps them after.
// Once drained — and as long as the caller keeps holding ingestMu so no
// new appends happen — the surviving members are in lockstep at the log
// head with idle replicators, which is exactly the quiesced state the
// synchronous handoff/flush/membership logic requires. The caller holds
// ingestMu.
func (c *Coordinator) drainLocked() {
	c.mu.Lock()
	for !c.closed {
		caught := true
		for _, ms := range c.members {
			// Failed members have exited their replicators and await reap;
			// stopped ones (a Close raced this drain) will never ack again.
			// Waiting on either would block forever.
			if ms.failed || ms.stopped {
				continue
			}
			if ms.ackedSeq < c.headSeq {
				caught = false
				break
			}
		}
		if caught {
			break
		}
		c.cond.Wait()
	}
	c.trimLogLocked()
	c.mu.Unlock()
}

// reapFailedLocked fails over every member whose replicator gave up:
// survivors are first drained to the log head (so history is complete and
// handoff catch-up is exact), then the failed members are marked down and
// their subscriptions re-placed. The caller holds ingestMu.
func (c *Coordinator) reapFailedLocked() error {
	c.mu.Lock()
	var ids []string
	for id, ms := range c.members {
		if ms.failed {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	sort.Strings(ids)
	c.drainLocked()
	// A successful failover is the designed response to a member death,
	// not an error: the death itself shows up in Downs and the member's
	// failErr is gone with its state. Only re-placement problems (e.g.
	// the last member died and subscriptions are parked unplaced) reach
	// the caller.
	return c.failLocked(ids)
}

// reapAsync runs a failover pass from a replicator goroutine so a member
// death is repaired promptly even on an idle coordinator (queries stop
// hitting the corpse without waiting for the next ingest).
func (c *Coordinator) reapAsync() {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	_ = c.reapFailedLocked()
}

// Drain blocks until every live member has applied and acknowledged the
// full replication log, then fails over any member whose replicator gave
// up along the way. It is the pipeline's barrier: after a nil return,
// every member has applied every acknowledged batch and queries observe
// the complete stream. The returned error reports failover problems
// (e.g. ErrNoMembers when the last member died with subscriptions left
// unplaced).
func (c *Coordinator) Drain() error {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	c.drainLocked()
	return c.reapFailedLocked()
}

// Close stops the replication pipeline: replicator goroutines exit after
// finishing their in-flight call. Close does not drain — call Drain first
// to push queued batches out — and the coordinator must not be used
// afterwards.
func (c *Coordinator) Close() {
	c.ingestMu.Lock()
	c.mu.Lock()
	c.closed = true
	dones := make([]chan struct{}, 0, len(c.members))
	for _, ms := range c.members {
		ms.stopped = true
		dones = append(dones, ms.done)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.ingestMu.Unlock()
	for _, d := range dones {
		<-d
	}
}
