package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"flowmotif/internal/obs"
)

// This file is the asynchronous replication pipeline behind
// Coordinator.Ingest (DESIGN.md §10). Ingest validates a batch, appends it
// to the coordinator's sequence-numbered log (log.go), and acknowledges
// immediately; one replicator goroutine per member delivers the log's
// entries past its acked sequence concurrently, coalescing a backlog into
// larger member calls, retrying transport failures (safe: batches are
// seq-tagged and members deduplicate resends), and recording the acked
// sequence/watermark that moves the log's history boundary and reports
// replication lag. A member whose replicator exhausts its retries is
// flagged failed and reaped — marked down with its subscriptions
// regenerated onto survivors from the log's history — at the next
// mutating operation (or promptly by a background reap), so a flapping
// member degrades to catch-up instead of stalling every other shard.

// slowestLocked is the lowest acked seq among members still replicating,
// or the log head when none is. Failed members are excluded: they no
// longer drain the log and must not wedge the pipeline while awaiting
// reap, and they regenerate from history, not the log. Stopped ones (a
// Close raced the caller) will never ack again.
func (c *Coordinator) slowestLocked() int64 {
	slowest := c.log.head()
	for _, ms := range c.members {
		if !ms.failed && !ms.stopped && ms.ackedSeq < slowest {
			slowest = ms.ackedSeq
		}
	}
	return slowest
}

// pipelineFullLocked reports whether the slowest member's unacked backlog
// has reached the configured queue depth — the backpressure condition
// that blocks Ingest.
func (c *Coordinator) pipelineFullLocked() bool {
	return c.log.head()-c.slowestLocked() >= int64(c.maxPending)
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
		for !ms.stopped && !ms.failed && ms.ackedSeq >= c.log.head() {
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
		evs, seq := c.log.coalesce(ms.ackedSeq, c.coalesce)
		n := len(evs)
		// The delivery span parents on the *newest* coalesced entry's
		// append span (a backlog folds several batch traces into one call;
		// the older entries keep their coordinator-side spans but their
		// member-side subtree lands under the newest trace — see DESIGN.md
		// §13). The older entries' trace IDs ride the span as the
		// coalesced_traces attribute so a stitched tree still names the
		// ingest ancestry it folded in. Read under mu: the log may be
		// trimmed once released.
		parent := c.log.entry(seq).sc
		var coalescedTraces []string
		if parent.Valid() {
			for s := first; s < seq; s++ {
				if t := c.log.entry(s).sc.Trace; t != "" {
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
				e := c.log.entry(s)
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

// deliver sends one tagged batch to a member through retry. Resending the
// identical tagged batch is safe: a member that applied it but lost the
// ack answers the resend with a duplicate no-op ack (the idempotency the
// seq tag buys). A member stopped between attempts ends the retries with
// a zero ack its replicator discards (it checks stopped first). Semantic
// rejections are terminal: the coordinator validated the batch, so a
// member rejecting it has diverged from the shared admission rules.
func (c *Coordinator) deliver(ms *memberState, b Batch) (IngestAck, error) {
	var ack IngestAck
	attempts := 0
	err := c.retry(func() error {
		if attempts++; attempts > 1 {
			c.mu.Lock()
			stopped := ms.stopped
			c.mu.Unlock()
			if stopped {
				return nil
			}
		}
		var e error
		ack, e = ms.m.Ingest(b)
		return e
	})
	if err != nil && !errors.Is(err, ErrMemberDown) {
		return IngestAck{}, fmt.Errorf("cluster: member %s rejected replicated batch seq %d: %w",
			ms.m.ID(), b.Seq, err)
	}
	return ack, err
}

// trimLogLocked moves the log's history boundary to the slowest member's
// acked seq; the log then applies HistoryLimit. The caller holds mu.
func (c *Coordinator) trimLogLocked() {
	c.log.trim(c.slowestLocked())
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
	for !c.closed && c.slowestLocked() < c.log.head() {
		c.cond.Wait()
	}
	c.trimLogLocked()
	c.mu.Unlock()
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
