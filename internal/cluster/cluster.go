package cluster

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Members are the initial shard engines (at least one).
	Members []Member
	// Subs are the subscriptions to place across the members.
	Subs []stream.Subscription
	// RetryDelay is the pause between retries (default 25ms; in-process
	// tests set it near zero).
	RetryDelay time.Duration
	// HistoryLimit bounds the coordinator's retained history in events
	// (0: unlimited). The history is the acked prefix of the coordinator's
	// log and the failover catch-up source: a subscription re-placed after
	// its member died is regenerated from it, so with an unlimited history
	// failover loses nothing, while a bounded history trades memory for
	// detections older than the bound. The cut falls on a timestamp
	// boundary, so the history may exceed the bound by the events sharing
	// its first timestamp.
	HistoryLimit int
	// MaxPending bounds each member's replication queue in log entries:
	// Ingest blocks (backpressure) while the slowest live member is this
	// many appended-but-unacked batches behind (default 128).
	MaxPending int
	// CoalesceEvents caps how many events a replicator folds into one
	// member call when draining a backlog (default 2048). Larger values
	// amortize per-call transport overhead (one HTTP round-trip per call
	// for remote members); smaller values bound member call latency and
	// per-call enumeration band size.
	CoalesceEvents int
}

// retries is how many times a failing member call is retried before the
// member is marked down.
const retries = 2

// memberState tracks one registered member and its replication pipeline
// position (the per-member state machine: replicating → failed → reaped,
// or replicating → stopped on drain/close).
type memberState struct {
	m    Member
	subs map[string]bool // subscription ids owned

	ackedSeq int64 // newest replication-log entry applied and acked
	ackedW   int64 // member watermark at that ack
	failed   bool  // replicator gave up; awaiting failover reap
	stopped  bool  // replicator told to exit (removed / reaped / closed)
	done     chan struct{}
}

// Coordinator partitions subscriptions across member engines, replicates
// ingest to them through the asynchronous pipeline (replication.go), and
// fans queries out by scatter-gather. Mutating operations (Ingest, Flush,
// membership changes, failover) are serialized; queries run concurrently
// with ingest and align results to the slowest shard's watermark.
type Coordinator struct {
	retryDelay time.Duration
	maxPending int
	coalesce   int

	// ingestMu serializes log-append order and membership/placement
	// changes; always acquired before mu. gate, only touched under it,
	// refuses before broadcast any batch the members' gates would refuse,
	// which keeps them in lockstep.
	ingestMu sync.Mutex
	gate     temporal.Gate
	maxDelta int64 // largest subscription δ (set at construction)

	// mu guards the fields below for concurrent readers (queries, stats)
	// and the replicator goroutines; cond (on mu) signals log appends,
	// acks, failures, and stops.
	mu       sync.Mutex
	cond     *sync.Cond
	members  map[string]*memberState
	subs     map[string]stream.Subscription
	owner    map[string]string // subID -> memberID
	unplaced map[string]bool   // subs with no member: lost, rejected or in flight

	// placeKey maps subID -> group-aware rendezvous key (the motif shape,
	// see GroupKey): same-shape subscriptions hash identically and so
	// co-locate on one member, where the engine's shared-evaluation
	// planner amortizes phase P1 across them. Immutable after New (the
	// subscription set is fixed at construction), so it is read without mu.
	placeKey map[string]string

	log streamLog // replication queue and failover history (log.go)

	watermark    int64
	started      bool
	batches      int64
	events       int64
	downs        int64 // members marked down
	moves        int64 // subscription re-placements
	failedCount  int   // members flagged failed, not yet reaped
	backpressure int64 // Ingest calls that blocked on a full queue
	closed       bool

	// Replication-pipeline instrumentation (histograms instead of the old
	// point gauges): per-entry append→ack lag, per-delivery wall-clock,
	// and events coalesced per delivery.
	obsReg     *obs.Registry
	mxReplLag  *obs.Histogram
	mxDeliver  *obs.Histogram
	mxCoalesce *obs.Histogram
	tracer     *obs.Tracer
}

// New builds a coordinator over the given members and places the
// subscriptions by rendezvous hashing. A member lost or a subscription
// rejected during construction is fatal (there is nothing to fail over
// from yet).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: at least one member required")
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 25 * time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 128
	}
	if cfg.CoalesceEvents <= 0 {
		cfg.CoalesceEvents = 2048
	}
	c := &Coordinator{
		retryDelay: cfg.RetryDelay,
		maxPending: cfg.MaxPending,
		coalesce:   cfg.CoalesceEvents,
		members:    map[string]*memberState{},
		subs:       map[string]stream.Subscription{},
		owner:      map[string]string{},
		unplaced:   map[string]bool{},
		placeKey:   map[string]string{},
		gate:       temporal.OpenGate(),
		log:        streamLog{first: 1, limit: cfg.HistoryLimit},
		obsReg:     obs.NewRegistry(),
		tracer:     obs.NewTracer(0),
	}
	c.cond = sync.NewCond(&c.mu)
	c.mxReplLag = c.obsReg.Histogram("flowmotif_replication_lag_seconds",
		"Append→ack lag per replication-log entry: coordinator log append to the owning member's applied ack.",
		obs.LatencyBuckets)
	c.mxDeliver = c.obsReg.Histogram("flowmotif_replication_deliver_seconds",
		"One replicator delivery call (member ingest including transport and retries).", obs.LatencyBuckets)
	c.mxCoalesce = c.obsReg.Histogram("flowmotif_replication_coalesce_events",
		"Events folded into one replicator delivery call.", obs.SizeBuckets)
	for _, m := range cfg.Members {
		if m.ID() == "" {
			return nil, errors.New("cluster: member with empty id")
		}
		if _, dup := c.members[m.ID()]; dup {
			return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID())
		}
		c.registerLocked(m.ID(), m)
	}
	for i, sub := range cfg.Subs {
		if sub.Motif == nil {
			return nil, fmt.Errorf("cluster: subscription %d: nil motif", i)
		}
		if sub.ID == "" {
			sub.ID = sub.Motif.Name()
		}
		if _, dup := c.subs[sub.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate subscription id %q", sub.ID)
		}
		c.subs[sub.ID] = sub
		c.placeKey[sub.ID] = GroupKey(sub)
		if sub.Delta > c.maxDelta {
			c.maxDelta = sub.Delta
		}
	}
	if err := c.placeLocked(""); err != nil {
		return nil, err
	}
	if len(c.members) < len(cfg.Members) {
		return nil, fmt.Errorf("%w: %d of %d members lost during the initial placement",
			ErrMemberDown, len(cfg.Members)-len(c.members), len(cfg.Members))
	}
	for _, ms := range c.members {
		go c.replicate(ms)
	}
	return c, nil
}

// retry calls fn up to 1+retries times while it keeps failing with
// ErrMemberDown; any other outcome returns immediately. Only *idempotent*
// member calls may be retried: queries, stats, traces, Flush (a second
// flush at the same watermark is a no-op), and — since batches became
// seq-tagged — replicated ingest (deliver, in replication.go). The handoff
// calls are single-attempt: a member may have applied one before its ack
// was lost, so a transport failure fails the member over instead
// (placeLocked).
func (c *Coordinator) retry(fn func() error) error {
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if err = fn(); !errors.Is(err, ErrMemberDown) {
			return err
		}
		if attempt < retries {
			time.Sleep(c.retryDelay)
		}
	}
	return err
}

// Ingest validates one batch, appends it to the replication log, and
// acknowledges immediately; per-member replicators deliver it to every
// shard concurrently (replication.go). The ack carries the log sequence
// and the new cluster watermark — detections finalize asynchronously as
// members apply the log (query with Stats, or Drain for a barrier). When
// the slowest live member's backlog reaches MaxPending entries, Ingest
// blocks until it drains or the member is failed over: backpressure, not
// unbounded queueing. The log, not any member, is the stream of record:
// once a batch is acked here it survives member failures (failover
// regenerates subscriptions from the coordinator's history).
func (c *Coordinator) Ingest(events []temporal.Event) (IngestAck, error) {
	return c.IngestTraced(events, obs.SpanContext{})
}

// IngestTraced is Ingest under a caller-provided span context: the serving
// layer passes its "http.ingest" request span so the batch's whole
// lifecycle — append, replication deliveries, member-side finalize and
// emit — lands in one trace with the HTTP request as the root.
//
//flowmotif:hotpath
func (c *Coordinator) IngestTraced(events []temporal.Event, parent obs.SpanContext) (IngestAck, error) {
	if len(events) == 0 {
		return IngestAck{Watermark: c.Watermark()}, nil
	}
	// The batch's trace starts here (unless a request span already roots
	// it): "ingest.append" anchors the replication deliveries and the
	// member-side ingest/finalize spans. Its trace ID travels back in the
	// ack, keying the full stitched tree in /debug/traces.
	var root *obs.TraceSpan
	if c.tracer != nil {
		root = c.tracer.StartSpan("ingest.append", parent,
			obs.L("events", strconv.Itoa(len(events))))
	}
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	c.mu.Lock()
	anyFailed := c.failedCount > 0
	n := len(c.members)
	c.mu.Unlock()
	if anyFailed {
		// Reap before admitting more work so failover latency is bounded
		// by one batch, not by queue depth. Non-fatal failover errors
		// (subscriptions parked unplaced) surface through Stats/healthz
		// rather than failing an otherwise-acceptable batch.
		_ = c.reapFailedLocked()
		c.mu.Lock()
		n = len(c.members)
		c.mu.Unlock()
	}
	if n == 0 {
		endSpanErr(root, ErrNoMembers)
		return IngestAck{}, ErrNoMembers
	}
	batch := append([]temporal.Event(nil), events...) // the log keeps it
	batch, err := c.gate.Admit(batch, &batch)
	if err != nil {
		err = fmt.Errorf("cluster: %w", err)
		endSpanErr(root, err)
		return IngestAck{}, err
	}
	last := batch[len(batch)-1].T
	c.mu.Lock()
	if c.pipelineFullLocked() {
		c.backpressure++
		for c.pipelineFullLocked() && !c.closed {
			c.cond.Wait()
		}
	}
	// appendedAt feeds only the replication-lag histogram; skip the clock
	// read when no consumer is armed.
	var appended time.Time
	if c.mxReplLag != nil {
		appended = time.Now()
	}
	seq := c.log.append(batch, appended, root.Context())
	c.watermark = last
	c.started = true
	c.batches++
	c.events += int64(len(batch))
	c.cond.Broadcast()
	c.mu.Unlock()
	c.gate.Advance(last)
	if root != nil {
		root.Annotate(obs.L("seq", strconv.FormatInt(seq, 10)))
	}
	root.End()
	return IngestAck{Ingested: len(batch), Watermark: last, Seq: seq, Trace: root.Context().Trace}, nil
}

// Flush broadcasts the end-of-stream marker: the replication pipeline is
// drained (every member applies the full log; members whose replicators
// gave up are failed over), then every member closes its still-open
// windows. Members that fail the flush with ErrMemberDown are failed over
// and the survivors flushed again. Ingest is quiesced throughout by
// design — the marker must not interleave with new batches — so the
// member calls run under ingestMu (never under mu). Later batches must
// clear the watermark by more than the largest subscription δ
// cluster-wide.
func (c *Coordinator) Flush() (IngestAck, error) {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	reapErr := c.reapFailedLocked()
	members, _ := c.asked("")
	agg, down, err := c.flushRound(members)
	if err != nil {
		return IngestAck{}, err
	}
	if len(down) == len(members) {
		return IngestAck{}, errors.Join(fmt.Errorf("%w: no member flushed", ErrNoMembers), reapErr)
	}
	c.mu.Lock()
	wm, started := c.watermark, c.started
	c.mu.Unlock()
	if started {
		c.gate.Flushed(wm, c.maxDelta)
	}
	agg.Watermark = wm
	if len(down) > 0 {
		if err := c.reapFailedLocked(down...); err != nil {
			return agg, errors.Join(err, reapErr)
		}
		// The re-placed subscriptions were regenerated on members that had
		// already flushed, so close their windows too. Terminal bands are
		// only re-enumerated for the moved subscriptions (the survivors'
		// own emitted bounds are already at the watermark).
		survivors, _ := c.asked("")
		more, _, _ := c.flushRound(survivors)
		agg.Detections += more.Detections
	}
	return agg, reapErr
}

// flushRound flushes members through the fan-out and sums the detections
// of those that flushed. It returns the ids of the members that failed
// with ErrMemberDown or, once every call has returned, the first other
// error.
func (c *Coordinator) flushRound(members []Member) (IngestAck, []string, error) {
	acks, errs := fanOut(c, obs.SpanContext{}, members, func(m Member, _ obs.SpanContext) (IngestAck, error) {
		return m.Flush()
	})
	var agg IngestAck
	var down []string
	for i, err := range errs {
		switch {
		case err == nil:
			agg.Detections += acks[i].Detections
		case errors.Is(err, ErrMemberDown):
			down = append(down, members[i].ID())
		default:
			return IngestAck{}, nil, err
		}
	}
	return agg, down, nil
}

// Subscriptions lists the cluster's subscriptions with their current
// owners ("" while unplaced).
func (c *Coordinator) Subscriptions() map[string]SubSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]SubSpec, len(c.subs))
	for id, sub := range c.subs {
		out[id] = SpecOf(sub)
	}
	return out
}

// Placement returns the current subscription → member assignment.
func (c *Coordinator) Placement() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.owner)
}

// Obs returns the coordinator's metrics registry, so the serving layer can
// expose the replication histograms and record request metrics beside them.
func (c *Coordinator) Obs() *obs.Registry {
	return c.obsReg
}

// Watermark returns the cluster watermark (the largest broadcast
// timestamp; 0 before the first event).
func (c *Coordinator) Watermark() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watermark
}
