package server

import (
	"errors"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/obs"
	"flowmotif/internal/temporal"
)

// Coordinator serves a cluster coordinator (internal/cluster) over the
// flowmotifd HTTP/JSON API: the data-plane endpoints match a single
// server's (POST /ingest, /flush; GET /instances, /topk, /subs, /stats,
// /metrics, /healthz), so clients need not know whether they talk to one
// engine or a cluster, plus membership administration. POST /ingest acks
// are pipelined ("pipelined": true with the replication-log "seq"): the
// batch is durable in the coordinator's replication log and applied by
// the shards asynchronously, so "detections" is 0 — watch each member's
// replLagEntries on /stats (flowmotif_cluster_member_repl_lag_entries on
// /metrics) instead. Query responses
// carry "started" (false until any shard has seen an event — an empty
// answer from a fresh cluster is not the same as an empty stream) and
// "degraded" (shards dropped from the gather, subscriptions unplaced, or
// a member awaiting failover). Membership administration —
//
//	POST /members/add     {"id": "m4", "url": "http://10.0.0.7:8089"}
//	                      register a member daemon and rebalance onto it.
//	POST /members/remove  {"id": "m4"}: drain a member gracefully.
//	POST /members/fail    {"id": "m4"}: mark a member down now and
//	                      re-place its subscriptions from history.
//
// cmd/flowmotifd serves one with -cluster-coordinator.
type Coordinator struct {
	c       *cluster.Coordinator
	maxBody int64
	started time.Time
	reqs    atomic.Int64
	runtime *obs.RuntimeStats
	ro      requestObs
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
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	cs := &Coordinator{
		c:       c,
		maxBody: cfg.MaxBodyBytes,
		started: time.Now(),
		ro:      requestObs{reg: c.Obs(), tracer: c.Tracer(), slow: cfg.SlowRequest, logger: cfg.Logger},
	}
	if c.Obs() != nil {
		cs.runtime = obs.NewRuntimeStats()
	}
	return cs
}

// Cluster returns the wrapped coordinator.
func (cs *Coordinator) Cluster() *cluster.Coordinator { return cs.c }

// Handler returns the HTTP API handler.
func (cs *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", cs.count("ingest", cs.handleIngest))
	mux.HandleFunc("/flush", cs.count("flush", cs.handleFlush))
	mux.HandleFunc("/instances", cs.count("instances", cs.handleInstances))
	mux.HandleFunc("/topk", cs.count("topk", cs.handleTopK))
	mux.HandleFunc("/subs", cs.count("subs", cs.handleSubs))
	mux.HandleFunc("/stats", cs.count("stats", cs.handleStats))
	mux.HandleFunc("/metrics", cs.count("metrics", cs.handleMetrics))
	mux.HandleFunc("/healthz", cs.count("healthz", cs.handleHealthz))
	mux.HandleFunc("/debug/traces", cs.count("debug.traces", cs.handleTraces))
	mux.HandleFunc("/debug/top", cs.count("debug.top", cs.handleTop))
	mux.HandleFunc("/members/add", cs.count("members.add", cs.handleMemberAdd))
	mux.HandleFunc("/members/remove", cs.count("members.remove", cs.handleMemberRemove))
	mux.HandleFunc("/members/fail", cs.count("members.fail", cs.handleMemberFail))
	return mux
}

func (cs *Coordinator) count(name string, h http.HandlerFunc) http.HandlerFunc {
	// Request histograms land in the cluster coordinator's registry, next
	// to the replication-pipeline instruments.
	return cs.ro.wrap(&cs.reqs, name, h)
}

// handleTraces serves GET /debug/traces. The per-trace fetch goes through
// the cluster coordinator's stitcher, so one batch's tree spans the
// coordinator append, every member's replication delivery, and the
// member-side finalize/emit stages.
func (cs *Coordinator) handleTraces(w http.ResponseWriter, r *http.Request) {
	serveTraces(w, r, cs.c.Tracer(), cs.c.Traces)
}

// ingestResponse is the coordinator's pipelined ingest ack (a single
// server answers with the shard's cluster.IngestAck as is).
type ingestResponse struct {
	cluster.IngestAck
	Pipelined bool `json:"pipelined"` // applied asynchronously
}

func (cs *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, cs.maxBody, &req) {
		return
	}
	evs := make([]temporal.Event, len(req.Events))
	for i, e := range req.Events {
		evs[i] = temporal.Event{From: e.From, To: e.To, T: e.T, F: e.F}
	}
	ack, err := cs.c.IngestTraced(evs, requestSpan(r).Context())
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	// Pipelined ack: the batch is appended to the replication log and
	// will be applied by every shard asynchronously; seq is its log
	// position and detections finalize later (GET /stats, /metrics).
	// trace keys the batch's stitched span tree in GET /debug/traces once
	// the shards apply it.
	writeJSON(w, http.StatusOK, ingestResponse{IngestAck: ack, Pipelined: true})
}

func (cs *Coordinator) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	ack, err := cs.c.Flush()
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (cs *Coordinator) handleInstances(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	limit, err := intParam(r, "limit", 50)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ds, g, err := cs.c.InstancesTraced(r.URL.Query().Get("sub"), limit, requestSpan(r).Context())
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":     len(ds),
		"watermark": g.Watermark,
		"started":   g.Started,
		"degraded":  g.Degraded,
		"instances": ds,
	})
}

func (cs *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sub := r.URL.Query().Get("sub")
	ds, g, err := cs.c.TopKTraced(sub, k, requestSpan(r).Context())
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sub":       sub,
		"count":     len(ds),
		"watermark": g.Watermark,
		"started":   g.Started,
		"degraded":  g.Degraded,
		"instances": ds,
	})
}

func (cs *Coordinator) handleSubs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	specs := cs.c.Subscriptions()
	placement := cs.c.Placement()
	type wireSub struct {
		ID     string  `json:"id"`
		Motif  string  `json:"motif"`
		Path   string  `json:"path"`
		Delta  int64   `json:"delta"`
		Phi    float64 `json:"phi"`
		Member string  `json:"member,omitempty"`
	}
	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]wireSub, 0, len(ids))
	for _, id := range ids {
		sp := specs[id]
		out = append(out, wireSub{
			ID:     sp.ID,
			Motif:  sp.Name,
			Path:   sp.Motif,
			Delta:  sp.Delta,
			Phi:    sp.Phi,
			Member: placement[id],
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"subs": out})
}

func (cs *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"cluster":       cs.c.StatsTraced(requestSpan(r).Context()),
		"uptimeSeconds": time.Since(cs.started).Seconds(),
		"httpRequests":  cs.reqs.Load(),
	})
}

// handleMetrics serves GET /metrics, the Prometheus text exposition: the
// replication-pipeline and request histograms, every member's engine/store
// histograms bucket-merged into cluster-wide distributions (member gauges
// stay distinguishable under a member="id" label), and the cluster gauges.
func (cs *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serveMetrics(w, r, cs.prometheusSnapshots)
}

// prometheusSnapshots assembles the coordinator's exposition set: its own
// registry (replication + request histograms), every member's metric
// snapshot merged in (histograms bucket-merged, gauges labeled by member),
// and the cluster-level gauges from Stats.
func (cs *Coordinator) prometheusSnapshots() []obs.MetricSnapshot {
	st := cs.c.Stats()
	acc := obs.NewAccum()
	acc.Add(cs.c.Obs().Snapshot())
	if cs.runtime != nil {
		acc.Add(cs.runtime.Collect())
	}
	for _, m := range st.Members {
		acc.Add(m.Metrics, obs.L("member", m.ID))
	}
	snaps := acc.Snapshots()
	snaps = append(snaps,
		gaugeSnap("flowmotif_cluster_watermark", "Cluster stream watermark (event time).", float64(st.Watermark)),
		gaugeSnap("flowmotif_cluster_members", "Live cluster members.", float64(len(st.Members))),
		gaugeSnap("flowmotif_cluster_subscriptions", "Subscriptions placed across the cluster.", float64(st.Subscriptions)),
		counterSnap("flowmotif_cluster_events_total", "Events appended to the replication log.", float64(st.Events)),
		counterSnap("flowmotif_cluster_downs_total", "Member failovers performed.", float64(st.Downs)),
		gaugeSnap("flowmotif_cluster_log_entries", "Replication-log entries awaiting at least one member.", float64(st.LogEntries)),
		counterSnap("flowmotif_cluster_backpressure_waits_total", "Ingest calls that blocked on a full member queue.", float64(st.Backpressure)),
		gaugeSnap("flowmotif_cluster_degraded", "1 when query answers may be incomplete.", boolGauge(st.Degraded)),
		counterSnap("flowmotif_http_requests_total", "HTTP requests served.", float64(cs.reqs.Load())),
		gaugeSnap("flowmotif_uptime_seconds", "Seconds since the coordinator started.", time.Since(cs.started).Seconds()),
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

func (cs *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	st := cs.c.Stats()
	status := "ok"
	if st.Degraded || len(st.Members) == 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":     status,
		"role":       "coordinator",
		"members":    len(st.Members),
		"unplaced":   len(st.Unplaced),
		"watermark":  st.Watermark,
		"started":    st.Started,
		"downs":      st.Downs,
		"headSeq":    st.HeadSeq,
		"logEntries": st.LogEntries,
	})
}

func (cs *Coordinator) handleMemberAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
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
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
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
