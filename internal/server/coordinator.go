package server

import (
	"errors"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// Coordinator serves a cluster coordinator (internal/cluster) through the
// same front door as a single daemon, so clients need not know whether
// they talk to one engine or a cluster. POST /ingest acks are pipelined
// ("pipelined": true with the replication-log "seq"): the batch is in the
// coordinator's replication log and the shards apply it asynchronously,
// so "detections" is 0 — watch each member's replLagEntries on /stats
// (flowmotif_cluster_member_repl_lag_entries on /metrics) instead. Query
// answers are "degraded" when shards dropped from the gather,
// subscriptions are unplaced, or a member awaits failover. Membership
// administration —
//
//	POST /members/add     {"id": "m4", "url": "http://10.0.0.7:8089"}
//	                      register a member daemon and rebalance onto it.
//	POST /members/remove  {"id": "m4"}: drain a member gracefully.
//	POST /members/fail    {"id": "m4"}: mark a member down now and
//	                      re-place its subscriptions from history.
//
// cmd/flowmotifd serves one with -cluster-coordinator.
type Coordinator struct {
	frontDoor
	c *cluster.Coordinator
}

// CoordinatorConfig parameterizes the HTTP serving wrapper around a
// cluster coordinator. The metrics registry and trace flight recorder are
// the coordinator's own (Coordinator.Obs, Coordinator.Tracer).
type CoordinatorConfig struct {
	// MaxBodyBytes bounds POST bodies (<= 0: 32 MiB default).
	MaxBodyBytes int64
	// Logger receives slow-request warnings; nil disables them.
	Logger *slog.Logger
	// SlowRequest tail-samples slow HTTP requests: a request slower than
	// this retains its trace in the flight recorder and logs a warning
	// carrying the trace ID (0: off).
	SlowRequest time.Duration
}

// NewCoordinator wraps a cluster coordinator for HTTP serving.
// maxBodyBytes bounds POST bodies (<= 0: 32 MiB default).
func NewCoordinator(c *cluster.Coordinator, maxBodyBytes int64) *Coordinator {
	return NewCoordinatorWith(c, CoordinatorConfig{MaxBodyBytes: maxBodyBytes})
}

// NewCoordinatorWith is NewCoordinator with the full serving config
// (slow-request tail sampling and its logger).
func NewCoordinatorWith(c *cluster.Coordinator, cfg CoordinatorConfig) *Coordinator {
	cs := &Coordinator{c: c}
	// Request histograms land in the cluster coordinator's registry, next
	// to the replication-pipeline instruments.
	cs.init(cs, cfg.MaxBodyBytes, requestObs{reg: c.Obs(), tracer: c.Tracer(), slow: cfg.SlowRequest, logger: cfg.Logger})
	return cs
}

// Cluster returns the wrapped coordinator.
func (cs *Coordinator) Cluster() *cluster.Coordinator { return cs.c }

// Handler returns the HTTP API handler: the front door's endpoints plus
// the /members/* administration.
func (cs *Coordinator) Handler() http.Handler {
	mux := cs.routes()
	mux.HandleFunc("/members/add", cs.count("members.add", http.MethodPost, cs.handleMemberAdd))
	mux.HandleFunc("/members/remove", cs.count("members.remove", http.MethodPost, cs.handleMemberRemove))
	mux.HandleFunc("/members/fail", cs.count("members.fail", http.MethodPost, cs.handleMemberFail))
	return mux
}

// ingestResponse is the coordinator's pipelined ingest ack (a daemon
// answers with the shard's cluster.IngestAck as is).
type ingestResponse struct {
	cluster.IngestAck
	Pipelined bool `json:"pipelined"` // applied asynchronously
}

// errClientSeq refuses a client's seq: a coordinator's batches are tagged
// by its own replication log.
var errClientSeq = errors.New("seq is assigned by the coordinator's log")

// The backend methods: the front door's data plane over the cluster.

func (cs *Coordinator) ingest(evs []temporal.Event, seq int64, parent obs.SpanContext) (any, error) {
	if seq != 0 {
		return nil, errClientSeq
	}
	ack, err := cs.c.IngestTraced(evs, parent)
	// Pipelined ack: seq is the batch's log position and detections
	// finalize later (GET /stats, /metrics); trace keys the batch's
	// stitched span tree in GET /debug/traces once the shards apply it.
	return ingestResponse{IngestAck: ack, Pipelined: true}, err
}

func (cs *Coordinator) flush(obs.SpanContext) (cluster.IngestAck, error) { return cs.c.Flush() }

func (cs *Coordinator) instances(sub string, limit int, parent obs.SpanContext) ([]*stream.Detection, cluster.Gather, error) {
	return cs.c.InstancesTraced(sub, limit, parent)
}

func (cs *Coordinator) topK(sub string, k int, parent obs.SpanContext) ([]*stream.Detection, cluster.Gather, error) {
	return cs.c.TopKTraced(sub, k, parent)
}

func (cs *Coordinator) subs() ([]cluster.SubSpec, map[string]string) {
	return slices.Collect(maps.Values(cs.c.Subscriptions())), cs.c.Placement()
}

func (cs *Coordinator) stats(parent obs.SpanContext) map[string]any {
	return map[string]any{"cluster": cs.c.StatsTraced(parent)}
}

// health answers from the coordinator's own record (cluster.Health): a
// probe of the coordinator never waits on a member.
func (cs *Coordinator) health() map[string]any {
	st := cs.c.Health()
	status := "ok"
	if st.Degraded || len(st.Members) == 0 {
		status = "degraded"
	}
	return map[string]any{
		"status":     status,
		"role":       "coordinator",
		"members":    len(st.Members),
		"unplaced":   len(st.Unplaced),
		"watermark":  st.Watermark,
		"started":    st.Started,
		"downs":      st.Downs,
		"headSeq":    st.HeadSeq,
		"logEntries": st.LogEntries,
	}
}

// metrics is the coordinator's exposition set: its own registry
// (replication + request histograms), every member's metric snapshot
// merged in (histograms bucket-merged into cluster-wide distributions,
// gauges labeled member="id"), and the cluster gauges from Stats.
func (cs *Coordinator) metrics() []obs.MetricSnapshot {
	st := cs.c.Stats()
	acc := obs.NewAccum()
	acc.Add(cs.c.Obs().Snapshot())
	for _, m := range st.Members {
		acc.Add(m.Metrics, obs.L("member", m.ID))
	}
	snaps := append(acc.Snapshots(),
		gaugeSnap("flowmotif_cluster_watermark", "Cluster stream watermark (event time).", float64(st.Watermark)),
		gaugeSnap("flowmotif_cluster_members", "Live cluster members.", float64(len(st.Members))),
		gaugeSnap("flowmotif_cluster_subscriptions", "Subscriptions placed across the cluster.", float64(st.Subscriptions)),
		counterSnap("flowmotif_cluster_events_total", "Events appended to the replication log.", float64(st.Events)),
		counterSnap("flowmotif_cluster_downs_total", "Member failovers performed.", float64(st.Downs)),
		gaugeSnap("flowmotif_cluster_log_entries", "Replication-log entries awaiting at least one member.", float64(st.LogEntries)),
		counterSnap("flowmotif_cluster_backpressure_waits_total", "Ingest calls that blocked on a full member queue.", float64(st.Backpressure)),
		gaugeSnap("flowmotif_cluster_degraded", "1 when query answers may be incomplete.", boolGauge(st.Degraded)),
	)
	for _, m := range st.Members {
		lbl := obs.L("member", m.ID)
		snaps = append(snaps,
			gaugeSnap("flowmotif_cluster_member_watermark_lag", "Cluster watermark minus member watermark (-1: stats probe failed).", float64(m.Lag), lbl),
			gaugeSnap("flowmotif_cluster_member_repl_lag_entries", "Replication-log entries the member has not acked yet.", float64(m.ReplLagEntries), lbl),
			gaugeSnap("flowmotif_cluster_member_failing", "1 when the member awaits failover reap.", boolGauge(m.Failing), lbl),
		)
	}
	return snaps
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (cs *Coordinator) spans(trace string) []obs.SpanRecord { return cs.c.Traces(trace) }

func (cs *Coordinator) members(parent obs.SpanContext) []cluster.MemberInfo {
	return cs.c.StatsTraced(parent).Members
}

func (cs *Coordinator) handleMemberAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if !decodeBody(w, r, cs.maxBody, &req) {
		return
	}
	if req.ID == "" || req.URL == "" {
		writeErr(w, http.StatusBadRequest, errors.New("id and url required"))
		return
	}
	if err := cs.c.AddMember(cluster.NewHTTPMember(req.ID, req.URL, nil)); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "id": req.ID})
}

func (cs *Coordinator) handleMemberRemove(w http.ResponseWriter, r *http.Request) {
	cs.memberOp(w, r, cs.c.RemoveMember)
}

func (cs *Coordinator) handleMemberFail(w http.ResponseWriter, r *http.Request) {
	cs.memberOp(w, r, cs.c.FailMember)
}

func (cs *Coordinator) memberOp(w http.ResponseWriter, r *http.Request, op func(string) error) {
	var req struct {
		ID string `json:"id"`
	}
	if !decodeBody(w, r, cs.maxBody, &req) {
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("id required"))
		return
	}
	if err := op(req.ID); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "id": req.ID})
}
