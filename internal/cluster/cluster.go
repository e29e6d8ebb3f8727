package cluster

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
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
	// changes; always acquired before mu. minNextT (the admission
	// frontier) is only touched under it.
	ingestMu sync.Mutex
	minNextT int64
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
		minNextT:   math.MinInt64,
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
// member calls may be retried: queries, stats, Flush (a second flush at
// the same watermark is a no-op), and — since batches became seq-tagged —
// replicated ingest (deliver, in replication.go). The handoff calls are
// single-attempt: a member may have applied one before its ack was lost,
// so a transport failure fails the member over instead (placeLocked).
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

// validateBatch replicates the engines' batch admission rules so the
// coordinator rejects a bad batch before broadcasting — keeping members in
// lockstep is what makes per-member semantic errors impossible (every
// member applies identical rules to the identical stream). The returned
// slice is a sorted copy.
func (c *Coordinator) validateBatch(events []temporal.Event) ([]temporal.Event, error) {
	batch := append([]temporal.Event(nil), events...) // the log keeps it
	batch = temporal.InTimeOrder(batch, &batch)
	if batch[0].T < c.minNextT {
		return nil, fmt.Errorf("%w: batch reaches back to t=%d, cluster frontier is %d",
			stream.ErrBehindFrontier, batch[0].T, c.minNextT)
	}
	if err := temporal.CheckEvents(batch); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return batch, nil
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
	batch, err := c.validateBatch(events)
	if err != nil {
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
	c.minNextT = last
	if root != nil {
		root.Annotate(obs.L("seq", strconv.FormatInt(seq, 10)))
	}
	root.End()
	return IngestAck{Ingested: len(batch), Watermark: last, Seq: seq, Trace: root.Context().Trace}, nil
}

// Flush broadcasts the end-of-stream marker: the replication pipeline is
// drained (every member applies the full log; members whose replicators
// gave up are failed over), then every member closes its still-open
// windows. Later batches must clear the watermark by more than the
// largest subscription δ cluster-wide.
func (c *Coordinator) Flush() (IngestAck, error) {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	reapErr := c.reapFailedLocked()
	c.mu.Lock()
	if len(c.members) == 0 {
		c.mu.Unlock()
		return IngestAck{}, errors.Join(ErrNoMembers, reapErr)
	}
	ids := sortedKeys(c.members)
	states := make([]*memberState, 0, len(ids))
	for _, id := range ids {
		states = append(states, c.members[id])
	}
	c.mu.Unlock()
	var agg IngestAck
	var failed []string
	for i, ms := range states {
		var ack IngestAck
		err := c.retry(func() error {
			var e error
			ack, e = ms.m.Flush()
			return e
		})
		if errors.Is(err, ErrMemberDown) {
			failed = append(failed, ids[i])
			continue
		}
		if err != nil {
			return IngestAck{}, err
		}
		agg.Detections += ack.Detections
	}
	if len(failed) == len(states) {
		return IngestAck{}, fmt.Errorf("%w: all %d members failed the flush", ErrNoMembers, len(states))
	}
	c.mu.Lock()
	wm, started := c.watermark, c.started
	c.mu.Unlock()
	if started {
		if m := temporal.SatAdd(wm, c.maxDelta+1); m > c.minNextT {
			c.minNextT = m
		}
	}
	agg.Watermark = wm
	if len(failed) > 0 {
		if err := c.reapFailedLocked(failed...); err != nil {
			return agg, errors.Join(err, reapErr)
		}
		// The re-placed subscriptions were regenerated on members that had
		// already flushed, so close their windows too. Terminal bands are
		// only re-enumerated for the moved subscriptions (the survivors'
		// own emitted bounds are already at the watermark).
		members, _ := c.healthyMembers()
		for _, m := range members {
			// Ingest is quiesced for the whole flush by design: the
			// marker must not interleave with new batches, so this RPC
			// intentionally runs under ingestMu (never under c.mu).
			if ack, err := m.Flush(); err == nil { //flowvet:ignore lockhold flush quiesces ingest by design
				agg.Detections += ack.Detections
			}
		}
	}
	return agg, reapErr
}

// Instances answers the recent-detections query. With sub set it routes to
// the owning shard; with sub empty it scatter-gathers every shard,
// aligns to the slowest shard's watermark, and concatenates newest-first.
// Returns the detections and the Gather status they are aligned to: a
// fresh-but-healthy cluster answers (nil, {Started: false}), which is
// distinguishable from a degraded gather (Degraded set when shards failed
// the query, subscriptions are unplaced, or a member awaits failover).
func (c *Coordinator) Instances(sub string, limit int) ([]*stream.Detection, Gather, error) {
	return c.InstancesTraced(sub, limit, obs.SpanContext{})
}

// InstancesTraced is Instances under a caller-provided span context (the
// serving layer's request span): the query gets a "query.instances" span
// with one "query.shard" child per member asked, each shard's context
// propagated over the traced transport. A zero parent records no spans —
// query traces exist only inside a request trace.
func (c *Coordinator) InstancesTraced(sub string, limit int, parent obs.SpanContext) ([]*stream.Detection, Gather, error) {
	return c.query("query.instances", sub, limit, parent, memberInstances, mergeRecent)
}

// TopK answers the best-detections query. With sub set it routes to the
// owning shard; with sub empty every shard contributes its local best k
// (merged across its own subscriptions) and the coordinator merges them
// into the global top k — correct because a subscription lives on exactly
// one shard, so the global best k is a subset of the union of local best
// ks. Returns the detections and the aligned Gather status (see
// Instances for its no-data/degraded semantics).
func (c *Coordinator) TopK(sub string, k int) ([]*stream.Detection, Gather, error) {
	return c.TopKTraced(sub, k, obs.SpanContext{})
}

// TopKTraced is TopK under a caller-provided span context (see
// InstancesTraced for the span shape).
func (c *Coordinator) TopKTraced(sub string, k int, parent obs.SpanContext) ([]*stream.Detection, Gather, error) {
	return c.query("query.topk", sub, k, parent, memberTopK, MergeTopK)
}

// query is the one routed-or-gathered detections query: with sub set, ask
// the owning shard for its n; with sub empty, ask every shard, hold back
// what lies beyond the slowest one's watermark (alignWatermark) and merge
// the lists down to n.
func (c *Coordinator) query(span, sub string, n int, parent obs.SpanContext,
	ask func(Member, string, int, obs.SpanContext) (QueryResult, error),
	merge func([][]*stream.Detection, int) []*stream.Detection,
) ([]*stream.Detection, Gather, error) {
	root := c.spanIf(span, parent, obs.L("sub", sub))
	defer root.End()
	if sub != "" {
		m, err := c.ownerOf(sub)
		if err != nil {
			endSpanErr(root, err)
			return nil, Gather{}, err
		}
		sp := c.spanIf("query.shard", root.Context(), obs.L("member", m.ID()))
		var r QueryResult
		if err := c.retry(func() error {
			var e error
			r, e = ask(m, sub, n, sp.Context())
			return e
		}); err != nil {
			endSpanErr(sp, err)
			endSpanErr(root, err)
			return nil, Gather{}, err
		}
		sp.End()
		return r.Detections, Gather{Watermark: r.Watermark, Started: r.Started, Degraded: c.degraded()}, nil
	}
	results, dropped, err := c.gather(root.Context(), func(m Member, sc obs.SpanContext) (QueryResult, error) {
		return ask(m, "", n, sc)
	})
	if err != nil {
		endSpanErr(root, err)
		return nil, Gather{}, err
	}
	alignedW, started, lists := alignWatermark(results)
	g := Gather{Watermark: alignedW, Started: started, Degraded: dropped > 0 || c.degraded()}
	return merge(lists, n), g, nil
}

// degraded reports whether query answers may be incomplete: subscriptions
// are unplaced (their member died with no survivor to adopt them) or a
// member is flagged failed and awaiting failover.
func (c *Coordinator) degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.unplaced) > 0 || c.failedCount > 0
}

// ownerOf resolves a subscription to its owning member.
func (c *Coordinator) ownerOf(sub string) (Member, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.owner[sub]
	if !ok {
		if c.unplaced[sub] {
			return nil, fmt.Errorf("%w: subscription %q lost its member", ErrNoMembers, sub)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownSub, sub)
	}
	ms, live := c.members[id]
	if !live {
		// Defensive: an owner entry must never outlive its member.
		return nil, fmt.Errorf("%w: subscription %q owner %q is gone", ErrNoMembers, sub, id)
	}
	return ms.m, nil
}

// gather fans a query out to every member concurrently. Members flagged
// failed (awaiting failover) are skipped up front, and a member that
// fails the query is dropped from the answer rather than failing the
// whole gather — the caller reports the answer as degraded instead of
// stalling on a flapping shard. Only a gather nobody answers is an error.
// Queries never mutate membership; repair belongs to the replication
// pipeline's reap.
func (c *Coordinator) gather(parent obs.SpanContext, q func(Member, obs.SpanContext) (QueryResult, error)) ([]QueryResult, int, error) {
	members, dropped := c.healthyMembers()
	if len(members) == 0 {
		return nil, dropped, ErrNoMembers
	}
	results := make([]QueryResult, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			sp := c.spanIf("query.shard", parent, obs.L("member", m.ID()))
			errs[i] = c.retry(func() error {
				var e error
				results[i], e = q(m, sp.Context())
				return e
			})
			if errs[i] != nil {
				sp.Annotate(obs.L("error", errs[i].Error()))
			}
			sp.End()
		}(i, m)
	}
	wg.Wait()
	kept := results[:0]
	var firstErr error
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: gather from %s: %w", members[i].ID(), err)
			}
			dropped++
			continue
		}
		kept = append(kept, results[i])
	}
	if len(kept) == 0 {
		return nil, dropped, errors.Join(ErrNoMembers, firstErr)
	}
	return kept, dropped, nil
}

// healthyMembers lists the members not flagged failed, in id order, and
// how many were skipped.
func (c *Coordinator) healthyMembers() ([]Member, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	members := make([]Member, 0, len(c.members))
	for _, id := range sortedKeys(c.members) {
		if ms := c.members[id]; !ms.failed {
			members = append(members, ms.m)
		}
	}
	return members, len(c.members) - len(members)
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

// MemberInfo is one member's row in ClusterStats: the member's own
// progress snapshot plus what only the coordinator knows about it.
type MemberInfo struct {
	MemberStats
	Lag int64 `json:"lag"` // cluster watermark − member watermark (-1: stats probe failed)
	// Replication-pipeline position (DESIGN.md §10): the newest log entry
	// this member has applied and acked, the watermark it reported with
	// that ack (the coordinator's own record — available even when the
	// live Stats probe fails and Lag reads -1), and how far behind the log
	// head it is in entries and events. Failing marks a member whose
	// replicator gave up, pending failover reap.
	AckedSeq       int64 `json:"ackedSeq"`
	AckedWatermark int64 `json:"ackedWatermark"`
	ReplLagEntries int64 `json:"replLagEntries"`
	ReplLagEvents  int64 `json:"replLagEvents"`
	Failing        bool  `json:"failing,omitempty"`
}

// ClusterStats snapshots cluster progress and health.
type ClusterStats struct {
	Members   []MemberInfo      `json:"members"`
	Placement map[string]string `json:"placement"`
	Unplaced  []string          `json:"unplaced,omitempty"`
	// PlacementGroups is the number of distinct group-aware placement keys
	// (motif shapes) across the subscription set — the unit rendezvous
	// hashing distributes, so same-shape subscriptions co-locate and share
	// their member's evaluation plan.
	PlacementGroups int   `json:"placementGroups"`
	Subscriptions   int   `json:"subscriptions"`
	Watermark       int64 `json:"watermark"`
	Started         bool  `json:"started"`
	Batches         int64 `json:"batches"`
	Events          int64 `json:"events"`
	HistoryEvents   int   `json:"historyEvents"`
	HistoryTrim     int64 `json:"historyTrimmed"`
	Downs           int64 `json:"downs"`
	Moves           int64 `json:"moves"`
	// Log gauges: the newest appended sequence, the entries and events
	// still queued for at least one member (the history above is the
	// rest of the same log), how often Ingest blocked on a full member
	// queue, and whether query answers may be incomplete right now.
	HeadSeq      int64 `json:"headSeq"`
	LogEntries   int   `json:"logEntries"`
	LogEvents    int   `json:"logEvents"`
	Backpressure int64 `json:"backpressureWaits"`
	Degraded     bool  `json:"degraded"`
}

// Stats gathers live per-member statistics. Members that fail the stats
// probe are reported with Started=false and Lag −1 rather than failing the
// whole snapshot.
func (c *Coordinator) Stats() ClusterStats {
	return c.StatsTraced(obs.SpanContext{})
}

// StatsTraced is Stats under a caller-provided span context: the
// per-member probes become "query.shard" spans under a "query.stats"
// span, each shard's context propagated over the traced transport.
func (c *Coordinator) StatsTraced(parent obs.SpanContext) ClusterStats {
	root := c.spanIf("query.stats", parent)
	defer root.End()
	st, ms := c.snapshot()
	for i, m := range ms {
		info := &st.Members[i]
		sp := c.spanIf("query.shard", root.Context(), obs.L("member", info.ID))
		if s, err := memberStats(m, sp.Context()); err == nil {
			s.ID = info.ID
			info.MemberStats = s
			if s.Started {
				info.Lag = st.Watermark - s.Watermark
			}
		}
		sp.End()
	}
	return st
}

// Health is Stats without the member probes: only what the coordinator
// records itself, so it never waits on a member. Each member row keeps its
// id and replication position, with Lag −1.
func (c *Coordinator) Health() ClusterStats {
	st, _ := c.snapshot()
	return st
}

// snapshot copies the coordinator's own record under mu and returns the
// members to probe, in the order of st.Members.
func (c *Coordinator) snapshot() (ClusterStats, []Member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := sortedKeys(c.members)
	ms := make([]Member, len(ids))
	groups := map[string]bool{}
	for _, k := range c.placeKey {
		groups[k] = true
	}
	st := ClusterStats{
		Members:         make([]MemberInfo, len(ids)),
		Placement:       maps.Clone(c.owner),
		Unplaced:        sortedKeys(c.unplaced),
		PlacementGroups: len(groups),
		Subscriptions:   len(c.subs),
		Watermark:       c.watermark,
		Started:         c.started,
		Batches:         c.batches,
		Events:          c.events,
		HistoryEvents:   int(c.log.historyEvents()),
		HistoryTrim:     c.log.dropped,
		Downs:           c.downs,
		Moves:           c.moves,
		HeadSeq:         c.log.head(),
		LogEntries:      int(c.log.head() - c.log.acked),
		LogEvents:       int(c.log.lagEvents(c.log.acked)),
		Backpressure:    c.backpressure,
		Degraded:        len(c.unplaced) > 0 || c.failedCount > 0,
	}
	for i, id := range ids {
		s := c.members[id]
		ms[i] = s.m
		st.Members[i] = MemberInfo{
			MemberStats:    MemberStats{ID: id},
			Lag:            -1,
			AckedSeq:       s.ackedSeq,
			AckedWatermark: s.ackedW,
			ReplLagEntries: c.log.head() - s.ackedSeq,
			ReplLagEvents:  c.log.lagEvents(s.ackedSeq),
			Failing:        s.failed,
		}
	}
	return st, ms
}

// spanIf starts a child span only under a real parent context: the
// coordinator's query spans exist only inside a request trace, never as
// roots of their own (the pipeline's ingest.append is the only span the
// coordinator roots itself).
func (c *Coordinator) spanIf(name string, parent obs.SpanContext, attrs ...obs.Label) *obs.TraceSpan {
	if !parent.Valid() {
		return nil
	}
	return c.tracer.StartSpan(name, parent, attrs...)
}

// endSpanErr annotates a span with the error and closes it (nil-safe).
func endSpanErr(s *obs.TraceSpan, err error) {
	if s == nil {
		return
	}
	s.Annotate(obs.L("error", err.Error()))
	s.End()
}

// Tracer returns the coordinator's flight recorder; the serving layer
// records request spans into it, so they land in one ring with the
// pipeline's.
func (c *Coordinator) Tracer() *obs.Tracer {
	return c.tracer
}

// Traces stitches the full span set for one trace ID: the coordinator's
// own spans (append, deliveries, query fan-out) plus every member's
// fragments (request, engine ingest, finalize stages, emit), fetched by
// trace ID, deduplicated by span ID, and sorted by start time. Members
// that fail the probe (down, or no /debug/traces endpoint) contribute
// nothing rather than failing the stitch.
func (c *Coordinator) Traces(trace string) []obs.SpanRecord {
	spans := c.tracer.Spans(trace)
	if trace == "" {
		return spans
	}
	seen := make(map[string]bool, len(spans))
	for _, s := range spans {
		seen[s.Span] = true
	}
	members, _ := c.healthyMembers()
	for _, m := range members {
		frag, err := m.Traces(trace)
		if err != nil {
			continue
		}
		for _, s := range frag {
			if !seen[s.Span] {
				seen[s.Span] = true
				spans = append(spans, s)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}
