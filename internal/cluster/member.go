// Package cluster scales motif serving horizontally: a Coordinator
// partitions the subscription set across N member engines by rendezvous
// hashing, replicates every time-ordered ingest batch to all members
// through an asynchronous, sequence-numbered replication pipeline, and
// answers queries by scatter-gather with watermark alignment and a
// distributed top-k merge.
//
// Ingest appends a validated batch to the coordinator's one log and
// acknowledges immediately; per-member replicator goroutines deliver it
// concurrently with adaptive batch coalescing, acked-watermark tracking,
// and backpressure when the slowest member falls too far behind (see
// replication.go and DESIGN.md §10). Entries every live member acked stay
// in the same log as the failover history (log.go). Batches carry their
// log sequence number, so a member that applied a batch but lost the ack
// treats the resend as a no-op instead of diverging.
//
// The design exploits the paper's per-subscription independence: each
// motif M = (GM, δ, φ) is evaluated on its own over the event stream
// (Kosyfaki et al., EDBT 2019, Definition 3.1), so the expensive part —
// per-subscription δ-window enumeration — partitions perfectly by
// subscription, while ingest (cheap: an append into a retention log) is
// replicated. A subscription's state is a function of (subscription,
// stream prefix), so where it should live depends only on the live member
// set. Every membership change — the first placement, a join, a drain, a
// failover — updates that set and runs one placement pass (placement.go):
// a subscription on a live member moves by handoff (its finalization
// bound, the catch-up events the receiver's log lacks, spliced in front
// by temporal.WindowLog.Prepend, and its sink state); one whose member died
// is regenerated from the log's history. The cluster therefore reports
// exactly the instance set of a single engine with the same subscriptions
// — the equivalence oracle in cluster_test.go — across all of them.
//
// A member is one Shard (shard.go): engine, query sinks and optional store,
// the only place a batch is deduplicated, applied, logged, checkpointed and
// recovered. The coordinator reaches it through the Member interface in two
// forms: LocalMember is the shard itself, in process (tests, examples and
// flowmotifd -shards), and HTTPMember is the client of a flowmotifd -member
// daemon, whose internal/server puts JSON handlers and a wire listener in
// front of the same Shard. To a remote member, replicated batches travel
// over the binary wire protocol only (internal/wire; the member advertises
// its listener on /healthz) and control-plane calls over HTTP/JSON; JSON
// ingest exists at the client-facing front door alone. The daemon maps the
// shard's errors onto statuses and wire codes, and HTTPMember.statusErr
// maps them back, so the coordinator sees the same error from either form.
package cluster

import (
	"errors"
	"fmt"

	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// ErrMemberDown marks transport-level member failures (process gone,
// connection refused, 5xx): the coordinator retries these and, when they
// persist, marks the member down and re-places its subscriptions. Semantic
// rejections (bad batch, unknown subscription) are never wrapped in it.
var ErrMemberDown = errors.New("cluster: member down")

// ErrUnknownSub is returned for queries naming a subscription no member
// serves (by the coordinator), or that this shard does not serve.
var ErrUnknownSub = errors.New("cluster: unknown subscription")

// ErrNoMembers is returned when an operation needs a live member and the
// cluster has none left.
var ErrNoMembers = errors.New("cluster: no live members")

// SubSpec is the wire form of a subscription: the motif by its
// spanning-path spec (motif.Parse syntax, e.g. "0-1-2-0"), its display
// name, plus δ and φ.
type SubSpec struct {
	ID    string  `json:"id"`
	Motif string  `json:"motif"`
	Name  string  `json:"name,omitempty"`
	Delta int64   `json:"delta"`
	Phi   float64 `json:"phi"`
}

// Subscription parses the spec into an engine subscription.
func (s SubSpec) Subscription() (stream.Subscription, error) {
	mo, err := motif.Parse(s.Motif)
	if err != nil {
		return stream.Subscription{}, fmt.Errorf("cluster: subscription %q: %w", s.ID, err)
	}
	if s.Name != "" && s.Name != mo.Name() {
		mo = mo.Named(s.Name)
	}
	return stream.Subscription{ID: s.ID, Motif: mo, Delta: s.Delta, Phi: s.Phi}, nil
}

// SpecOf converts an engine subscription to its wire form (the motif
// travels as its canonical shape key, which Parse round-trips).
func SpecOf(sub stream.Subscription) SubSpec {
	return SubSpec{
		ID:    sub.ID,
		Motif: sub.Motif.ShapeKey(),
		Name:  sub.Motif.Name(),
		Delta: sub.Delta,
		Phi:   sub.Phi,
	}
}

// Handoff moves one subscription onto a member: its identity, its
// finalization bound, the catch-up events the receiver may be missing, and
// the query-sink state (recent ring entries oldest-first, top-k
// best-first) so scatter-gather results survive the move.
type Handoff struct {
	Sub     SubSpec             `json:"sub"`
	Emitted int64               `json:"emitted"`
	Primed  bool                `json:"primed"`
	Catchup []temporal.Event    `json:"catchup,omitempty"`
	Recent  []*stream.Detection `json:"recent,omitempty"`
	Top     []*stream.Detection `json:"top,omitempty"`
}

// Batch is one replication unit: a time-ordered event slice tagged with
// the replication-log sequence number of its newest entry. Seq 0 marks an
// untagged (non-replicated) batch; tagged batches are idempotent — a
// member that already applied Seq answers the resend with its recorded
// ack (Dup set) instead of rejecting it as behind-frontier.
type Batch struct {
	Seq    int64            `json:"seq,omitempty"`
	Events []temporal.Event `json:"events"`
	// Traceparent carries the delivering replicator's span context (W3C
	// traceparent form) so the member's ingest spans join the batch's
	// coordinator trace. Empty when tracing is off. The HTTP transport
	// moves it as the traceparent request header, not a body field.
	Traceparent string `json:"traceparent,omitempty"`
}

// IngestAck acknowledges an ingest or flush: what was applied, the new
// watermark, and how many detections the call finalized. For pipelined
// coordinator ingest, Seq is the replication-log sequence the batch was
// appended at and Detections is 0 (detections finalize asynchronously as
// members apply the log; see Stats). For member ingest, Seq echoes the
// applied batch tag and Dup marks an idempotent resend no-op.
type IngestAck struct {
	Ingested   int   `json:"ingested"`
	Watermark  int64 `json:"watermark"`
	Detections int64 `json:"detections"`
	Seq        int64 `json:"seq,omitempty"`
	Dup        bool  `json:"dup,omitempty"`
	// Trace is the batch's trace ID: the key into /debug/traces (and the
	// flight recorder) for the span tree that follows this batch from
	// append through replication to detection emit. Empty when tracing is
	// off or the batch was a duplicate no-op.
	Trace string `json:"trace,omitempty"`
}

// QueryResult is one member's contribution to a scatter-gather query,
// tagged with the member's watermark for alignment.
type QueryResult struct {
	Watermark  int64               `json:"watermark"`
	Started    bool                `json:"started"`
	Detections []*stream.Detection `json:"detections"`
}

// MemberStats is one member's progress snapshot — typed once: a shard
// produces it (Shard.Stats, or HTTPMember from the daemon's GET /stats),
// the coordinator embeds it in its MemberInfo row, and /debug/top ranks
// its cost rows. The JSON tags are the member rows of the coordinator's
// /stats. The planner gauges mirror the engine's shared-evaluation
// counters (stream.Stats, DESIGN.md §11): how many (shape, δ) plan groups
// the member currently serves, how many snapshots it built, the
// bands-per-snapshot reuse ratio, and how many structural matches were
// served from a shared per-shape list.
type MemberStats struct {
	ID             string   `json:"id"`
	Subs           []string `json:"subs"`
	Watermark      int64    `json:"watermark"`
	Started        bool     `json:"started"`
	Events         int64    `json:"events"`
	Retained       int      `json:"retained"`
	Detections     int64    `json:"detections"`
	PlanGroups     int      `json:"planGroups,omitempty"`
	SnapshotBuilds int64    `json:"snapshotBuilds,omitempty"`
	SnapshotReuse  float64  `json:"snapshotReuse,omitempty"`
	MatchesShared  int64    `json:"matchesShared,omitempty"`
	// Metrics is the member's full metric snapshot (engine stage and
	// detection-lag histograms among them); the coordinator bucket-merges
	// these across members for its own exposition. Not part of the /stats
	// row: /metrics is its serving surface.
	Metrics []obs.MetricSnapshot `json:"-"`
	// Cost attribution (DESIGN.md §14): the member engine's attributed
	// seconds and metered rounds plus its per-subscription and
	// per-plan-group accounts, the rows /debug/top ranks (and, but for the
	// seconds, serves).
	CostSeconds float64                 `json:"costSeconds,omitempty"`
	CostRounds  int64                   `json:"-"`
	SubCosts    []SubCostInfo           `json:"-"`
	GroupCosts  []stream.GroupCostStats `json:"-"`
}

// SubCostInfo is one subscription's attributed-cost row in MemberStats.
type SubCostInfo struct {
	ID    string         `json:"id"`
	Shape string         `json:"shape"`
	Cost  stream.SubCost `json:"cost"`
}

// Member is the coordinator's view of one shard. Implementations wrap
// infrastructure failures in ErrMemberDown; every other error is
// semantic and deterministic across members (all members apply identical
// validation to the identical broadcast stream).
type Member interface {
	ID() string
	// Ingest applies one time-ordered batch (all-or-nothing). A batch
	// tagged with a replication-log sequence number at or below the
	// member's last applied tag is an idempotent no-op (Dup ack).
	Ingest(b Batch) (IngestAck, error)
	// Flush closes every still-open window (end-of-stream marker).
	Flush() (IngestAck, error)
	// AddSubscription installs a subscription, splicing the handoff's
	// catch-up events and sink state.
	AddSubscription(h Handoff) error
	// RemoveSubscription uninstalls a subscription and returns its handoff.
	RemoveSubscription(id string) (Handoff, error)
	// Instances returns recent detections, newest first (sub "" = all
	// local subscriptions).
	Instances(sub string, limit int) (QueryResult, error)
	// TopK returns the best detections by flow (sub "" = merged across all
	// local subscriptions).
	TopK(sub string, k int) (QueryResult, error)
	// Stats snapshots member progress.
	Stats() (MemberStats, error)
	// Traces returns the member's recorded spans for one trace ID (empty
	// when the member's flight recorder no longer holds it). The
	// coordinator stitches these member-side fragments onto its own spans
	// for /debug/traces.
	Traces(trace string) ([]obs.SpanRecord, error)
}

// tracedQuerier is the optional transport capability of propagating a
// query's span context to the member (the HTTP transport sends it as the
// traceparent header so the member's request span joins the
// coordinator's query trace). The coordinator type-asserts and falls
// back to the plain Member calls; LocalMember needs no propagation — the
// coordinator-side shard span already covers the in-process call.
type tracedQuerier interface {
	InstancesTraced(sub string, limit int, sc obs.SpanContext) (QueryResult, error)
	TopKTraced(sub string, k int, sc obs.SpanContext) (QueryResult, error)
	StatsTraced(sc obs.SpanContext) (MemberStats, error)
}

// memberInstances routes an Instances call through the traced transport
// when the member supports it and sc is a real span context.
func memberInstances(m Member, sub string, limit int, sc obs.SpanContext) (QueryResult, error) {
	if tq, ok := m.(tracedQuerier); ok && sc.Valid() {
		return tq.InstancesTraced(sub, limit, sc)
	}
	return m.Instances(sub, limit)
}

// memberTopK routes a TopK call through the traced transport when
// available.
func memberTopK(m Member, sub string, k int, sc obs.SpanContext) (QueryResult, error) {
	if tq, ok := m.(tracedQuerier); ok && sc.Valid() {
		return tq.TopKTraced(sub, k, sc)
	}
	return m.TopK(sub, k)
}

// memberStats routes a Stats call through the traced transport when
// available.
func memberStats(m Member, sc obs.SpanContext) (MemberStats, error) {
	if tq, ok := m.(tracedQuerier); ok && sc.Valid() {
		return tq.StatsTraced(sc)
	}
	return m.Stats()
}
