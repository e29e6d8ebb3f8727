package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
)

// fanOut is the coordinator's one way to reach members outside the
// replication pipeline and the placement pass: queries, stats, traces and
// flush. It calls every member at once, one goroutine each, and returns
// each member's result and error in member order. Each call runs through
// retry and, under a valid parent context, inside a "query.shard" span
// whose context the call may propagate to the member.
func fanOut[R any](c *Coordinator, parent obs.SpanContext, members []Member,
	call func(Member, obs.SpanContext) (R, error),
) ([]R, []error) {
	results := make([]R, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := c.spanIf("query.shard", parent, obs.L("member", m.ID()))
			errs[i] = c.retry(func() error {
				var err error
				results[i], err = call(m, sp.Context())
				return err
			})
			if errs[i] != nil {
				sp.Annotate(obs.L("error", errs[i].Error()))
			}
			sp.End()
		}()
	}
	wg.Wait()
	return results, errs
}

// asked lists the members a fan-out asks: for a routed query (sub set),
// the subscription's owner alone; otherwise every member not flagged
// failed (awaiting failover), in id order. Queries never mutate
// membership; repair belongs to the replication pipeline's reap.
func (c *Coordinator) asked(sub string) ([]Member, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sub != "" {
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
		return []Member{ms.m}, nil
	}
	members := make([]Member, 0, len(c.members))
	for _, id := range sortedKeys(c.members) {
		if ms := c.members[id]; !ms.failed {
			members = append(members, ms.m)
		}
	}
	return members, nil
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

// query is the one routed-or-gathered detections query. With sub set it
// asks the owning shard for its n and returns the owner's error
// unchanged. With sub empty it asks every member the fan-out asks; a
// member that fails is dropped from the answer, which is then degraded,
// rather than stalling it on a flapping shard, and only a gather nobody
// answers is an error. It holds back what lies beyond the slowest
// answer's watermark (alignWatermark) and merges the lists down to n.
func (c *Coordinator) query(span, sub string, n int, parent obs.SpanContext,
	ask func(Member, string, int, obs.SpanContext) (QueryResult, error),
	merge func([][]*stream.Detection, int) []*stream.Detection,
) ([]*stream.Detection, Gather, error) {
	root := c.spanIf(span, parent, obs.L("sub", sub))
	defer root.End()
	members, err := c.asked(sub)
	if err != nil {
		endSpanErr(root, err)
		return nil, Gather{}, err
	}
	results, errs := fanOut(c, root.Context(), members, func(m Member, sc obs.SpanContext) (QueryResult, error) {
		return ask(m, sub, n, sc)
	})
	if sub != "" {
		if errs[0] != nil {
			endSpanErr(root, errs[0])
			return nil, Gather{}, errs[0]
		}
		r := results[0]
		return r.Detections, Gather{Watermark: r.Watermark, Started: r.Started, Degraded: c.degraded()}, nil
	}
	kept := results[:0]
	var firstErr error
	for i, err := range errs {
		if err == nil {
			kept = append(kept, results[i])
		} else if firstErr == nil {
			firstErr = fmt.Errorf("cluster: gather from %s: %w", members[i].ID(), err)
		}
	}
	if len(kept) == 0 {
		err := errors.Join(ErrNoMembers, firstErr)
		endSpanErr(root, err)
		return nil, Gather{}, err
	}
	alignedW, started, lists := alignWatermark(kept)
	g := Gather{Watermark: alignedW, Started: started, Degraded: firstErr != nil || c.degraded()}
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

// Stats is Health plus every asked member's live statistics, probed at
// once. A member that was not asked (flagged failed) or failed the probe
// keeps its Health row (Started=false, Lag −1) rather than failing the
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
	st := c.Health()
	members, _ := c.asked("")
	stats, errs := fanOut(c, root.Context(), members, memberStats)
	for i, s := range stats {
		id := members[i].ID()
		row := slices.IndexFunc(st.Members, func(r MemberInfo) bool { return r.ID == id })
		if errs[i] != nil || row < 0 {
			continue
		}
		info := &st.Members[row]
		s.ID = id
		info.MemberStats = s
		if s.Started {
			info.Lag = st.Watermark - s.Watermark
		}
	}
	return st
}

// Health is Stats without the member probes: only what the coordinator
// records itself, copied under mu, so it never waits on a member. Each
// member row keeps its id and replication position, with Lag −1.
func (c *Coordinator) Health() ClusterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := sortedKeys(c.members)
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
	return st
}

// Tracer returns the coordinator's flight recorder; the serving layer
// records request spans into it, so they land in one ring with the
// pipeline's.
func (c *Coordinator) Tracer() *obs.Tracer {
	return c.tracer
}

// Traces stitches the full span set for one trace ID: the coordinator's
// own spans (append, deliveries, query fan-out) plus every asked member's
// fragments (request, engine ingest, finalize stages, emit), fetched by
// trace ID at once, deduplicated by span ID, and sorted by start time.
// Members that fail the probe (down, or no /debug/traces endpoint)
// contribute nothing rather than failing the stitch.
func (c *Coordinator) Traces(trace string) []obs.SpanRecord {
	spans := c.tracer.Spans(trace)
	if trace == "" {
		return spans
	}
	members, _ := c.asked("")
	seen := make(map[string]bool, len(spans))
	for _, s := range spans {
		seen[s.Span] = true
	}
	frags, errs := fanOut(c, obs.SpanContext{}, members, func(m Member, _ obs.SpanContext) ([]obs.SpanRecord, error) {
		return m.Traces(trace)
	})
	for i, frag := range frags {
		if errs[i] != nil {
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
