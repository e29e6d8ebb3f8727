// Package server puts transports in front of one shard (cluster.Shard, the
// admission core an in-process cluster.LocalMember also is): an HTTP/JSON
// API and the binary wire listener (wire.go), with request accounting,
// /debug/* and the SLO watchdog — the serving layer behind cmd/flowmotifd.
// Ingest order, seq dedup, WAL coupling, fail-stop, snapshot and recovery
// live in the shard; the server decodes requests, calls it, and maps its
// errors onto statuses (errStatus) and wire codes (wireErrorCode).
//
// Endpoints:
//
//	POST /ingest    {"events":[{"from":0,"to":1,"t":10,"f":5}, ...]}
//	                append a batch (may be internally unordered, must not
//	                reach behind the stream frontier); responds with the
//	                ingested count, the new watermark and how many
//	                detections the batch finalized.
//	POST /flush     close every still-open window (end-of-stream marker);
//	                later events must clear the watermark by more than the
//	                largest subscription δ.
//	GET  /instances?sub=ID&limit=N   recent detections, newest first.
//	GET  /topk?sub=ID&k=N            best detections by instance flow.
//	GET  /subs      configured subscriptions.
//	GET  /stats     engine + store + server statistics (JSON).
//	GET  /metrics   Prometheus text exposition: the registry's histograms
//	                (finalize stages, detection lag, WAL and per-endpoint
//	                request timings) plus engine/store gauges read at
//	                scrape time. ?format=prometheus is accepted and ignored.
//	GET  /healthz   health probe: watermark, event counts, last snapshot.
//	POST /snapshot  checkpoint the engine + sink state to the data dir
//	                (durable servers only).
//
// With Config.DataDir set the shard is durable: every acknowledged batch
// is appended to a segmented write-ahead log (internal/store), POST
// /snapshot and POST /flush checkpoint the engine, and New recovers the
// pre-crash state from the newest snapshot plus a replay of the WAL tail.
//
// With Config.Member set the server is a cluster shard (internal/cluster):
// it may start with no subscriptions and exposes the handoff endpoints a
// coordinator drives —
//
//	POST /cluster/add-sub     install a subscription (handoff payload:
//	                          spec, finalization bound, catch-up events,
//	                          sink state).
//	POST /cluster/remove-sub  {"id": "..."}: uninstall a subscription and
//	                          return its handoff payload.
//
// Errors are JSON {"error": "..."}: 400 for malformed requests, 404 for
// unknown subscriptions, 405 for wrong methods, 409 for batches that
// violate the stream order contract, 413 for request bodies over
// Config.MaxBodyBytes, 503 from a fail-stopped shard (restart to recover).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/obs"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// Config parameterizes a Server.
type Config struct {
	// Subs are the motif subscriptions served by the engine.
	Subs []stream.Subscription
	// Workers is the per-band enumeration parallelism (<= 1 serial).
	Workers int
	// Recent bounds the in-memory ring of recent detections served by
	// GET /instances, TopK the per-subscription top list served by GET
	// /topk (defaults: cluster.NewQuerySinks).
	Recent int
	TopK   int
	// DataDir, when non-empty, makes the server durable: ingested batches
	// are appended to a segmented WAL under this directory and New
	// recovers engine + sink state from the newest snapshot plus the WAL
	// tail.
	DataDir string
	// SyncWrites fsyncs the WAL after every acknowledged batch (durable
	// against machine crashes, not just process crashes). Durable servers
	// only.
	SyncWrites bool
	// SegmentEvents caps events per WAL segment (default
	// store.DefaultSegmentEvents). Durable servers only.
	SegmentEvents int
	// Member marks the server as a cluster shard: it may start with no
	// subscriptions (a coordinator places them at runtime) and serves the
	// /cluster/* handoff endpoints.
	Member bool
	// MaxBodyBytes bounds POST request bodies (default 32 MiB); oversized
	// requests are rejected with 413.
	MaxBodyBytes int64
	// DisableObs turns metric collection and tracing off entirely (no
	// registry, no per-round histograms, no flight recorder); /metrics
	// still serves the gauges it reads at scrape time.
	DisableObs bool
	// Logger receives the server's structured logs (slow-round warnings
	// among them); nil disables logging.
	Logger *slog.Logger
	// SlowRound is the engine's slow-finalize-round warning threshold
	// (0: no warnings). Requires Logger.
	SlowRound time.Duration
	// SlowRequest tail-samples slow HTTP requests: a request slower than
	// this retains its trace in the flight recorder and logs a warning
	// carrying the trace ID (0: off).
	SlowRequest time.Duration
	// SLO configures the burn-rate watchdog (DESIGN.md §14): with
	// SLO.LagSLO set (and observability on) a goroutine samples detection
	// lag and HTTP error rates, exports flowmotif_slo_burn_rate gauges, and
	// degrades /healthz when both burn windows run hot.
	SLO SLOConfig
}

// Server puts the HTTP handlers and the wire listener in front of a shard.
type Server struct {
	shard   *cluster.Shard
	member  bool
	maxBody int64
	started time.Time
	reqs    atomic.Int64
	obsReg  *obs.Registry     // nil with Config.DisableObs
	tracer  *obs.Tracer       // nil with Config.DisableObs
	runtime *obs.RuntimeStats // nil with Config.DisableObs
	slo     *sloWatchdog      // nil unless Config.SLO.LagSLO set (and obs on)
	ro      requestObs

	// Binary wire-protocol listener state (internal/wire; see wire.go).
	// wx is nil with Config.DisableObs — the decode loop's clocks gate on
	// it. The shared interner maps symbolic-mode labels onto one
	// server-wide node-id space across connections.
	wx           *wireMetrics
	wireInternMu sync.RWMutex
	wireIntern   *temporal.Interner
	wireMu       sync.Mutex
	wireLn       net.Listener
	wirePort     int
	wireConns    map[net.Conn]struct{}
	wireWG       sync.WaitGroup
}

// New builds a Server from cfg: the engine, its query sinks and — with
// cfg.DataDir set — the event store, assembled into a shard, which
// recovers the pre-crash state from the store (cluster.NewShard).
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if len(cfg.Subs) == 0 && !cfg.Member {
		return nil, errors.New("server: at least one subscription required (cluster members start empty)")
	}
	// One registry per server: engine, store and HTTP instruments land
	// together, so one scrape (or one /stats metrics payload for cluster
	// transport) covers the whole pipeline.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if !cfg.DisableObs {
		reg, tracer = obs.NewRegistry(), obs.NewTracer(0)
	}
	s := &Server{
		member:  cfg.Member,
		maxBody: cfg.MaxBodyBytes,
		started: time.Now(),
		obsReg:  reg,
		tracer:  tracer,
		ro:      requestObs{reg: reg, tracer: tracer, slow: cfg.SlowRequest, logger: cfg.Logger},
	}
	if !cfg.DisableObs {
		s.runtime = obs.NewRuntimeStats()
		// Registered whether or not a wire listener is armed, so the
		// metrics catalog (and its drift check) sees every series a server
		// can expose.
		s.wx = newWireMetrics(reg)
	}
	s.wireIntern = temporal.NewInterner()
	recent, topk := cluster.NewQuerySinks(cfg.Recent, cfg.TopK)
	eng, err := stream.NewEngine(stream.Config{
		Subs:       cfg.Subs,
		Workers:    cfg.Workers,
		Obs:        reg,
		DisableObs: cfg.DisableObs,
		Logger:     cfg.Logger,
		SlowRound:  cfg.SlowRound,
		Tracer:     tracer,
	}, stream.MultiSink{recent, topk})
	if err != nil {
		return nil, err
	}
	var st *store.Store
	if cfg.DataDir != "" {
		st, err = store.Open(cfg.DataDir, store.Options{
			Sync:          cfg.SyncWrites,
			SegmentEvents: cfg.SegmentEvents,
			Obs:           reg,
		})
		if err != nil {
			return nil, err
		}
	}
	if s.shard, err = cluster.NewShard(eng, recent, topk, st); err != nil {
		return nil, err
	}
	if cfg.SLO.LagSLO > 0 && reg != nil {
		s.slo = newSLOWatchdog(cfg.SLO, reg, tracer, cfg.Logger)
	}
	return s, nil
}

// Engine returns the underlying stream engine (e.g. for direct feeding in
// tests and demos).
func (s *Server) Engine() *stream.Engine { return s.shard.Engine() }

// Durable reports whether the server persists to a data dir.
func (s *Server) Durable() bool { return s.shard.Store() != nil }

// Recovery reports what New rebuilt from the data dir (zero value for
// non-durable servers or empty dirs).
func (s *Server) Recovery() cluster.RecoveryStats { return s.shard.Recovery() }

// Snapshot checkpoints the shard to the data dir, returning the WAL seq
// the checkpoint reflects.
func (s *Server) Snapshot() (int64, error) { return s.shard.Snapshot() }

// Close stops the SLO watchdog and the wire listener, then closes the
// shard (a durable one flushes a final snapshot first). The server must
// not serve requests afterwards.
func (s *Server) Close() error {
	if s.slo != nil {
		s.slo.stopWatch()
		s.slo = nil
	}
	s.StopWire()
	return s.shard.Close()
}

// Handler returns the HTTP API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.count("ingest", s.handleIngest))
	mux.HandleFunc("/flush", s.count("flush", s.handleFlush))
	mux.HandleFunc("/instances", s.count("instances", s.handleInstances))
	mux.HandleFunc("/topk", s.count("topk", s.handleTopK))
	mux.HandleFunc("/subs", s.count("subs", s.handleSubs))
	mux.HandleFunc("/stats", s.count("stats", s.handleStats))
	mux.HandleFunc("/snapshot", s.count("snapshot", s.handleSnapshot))
	mux.HandleFunc("/healthz", s.count("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.count("metrics", s.handleMetrics))
	mux.HandleFunc("/debug/traces", s.count("debug.traces", s.handleTraces))
	mux.HandleFunc("/debug/top", s.count("debug.top", s.handleTop))
	if s.member {
		mux.HandleFunc("/cluster/add-sub", s.count("cluster.add-sub", s.handleAddSub))
		mux.HandleFunc("/cluster/remove-sub", s.count("cluster.remove-sub", s.handleRemoveSub))
	}
	return mux
}

func (s *Server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.ro.wrap(&s.reqs, name, h)
}

// Obs returns the server's metrics registry (nil with Config.DisableObs).
func (s *Server) Obs() *obs.Registry { return s.obsReg }

// Tracer returns the server's trace flight recorder (nil with
// Config.DisableObs).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// handleTraces serves GET /debug/traces: recent (or ?slowest=1) trace
// summaries from the flight recorder, or one trace's full span tree with
// ?trace=<id>.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	serveTraces(w, r, s.tracer, s.tracer.Spans)
}

// handleMetrics serves GET /metrics, the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serveMetrics(w, r, s.prometheusSnapshots)
}

// prometheusSnapshots assembles the server's exposition set: the registry
// contents (histograms and any registered scalars) plus the point-in-time
// engine/store gauges that live in Stats structs.
func (s *Server) prometheusSnapshots() []obs.MetricSnapshot {
	var snaps []obs.MetricSnapshot
	if s.obsReg != nil {
		snaps = s.obsReg.Snapshot()
	}
	if s.runtime != nil {
		snaps = append(snaps, s.runtime.Collect()...)
	}
	st := s.Engine().Stats()
	snaps = append(snaps,
		gaugeSnap("flowmotif_engine_watermark", "Stream watermark (event time).", float64(st.Watermark)),
		counterSnap("flowmotif_engine_events_ingested_total", "Events accepted by the engine.", float64(st.EventsIngested)),
		gaugeSnap("flowmotif_engine_events_retained", "Events currently in the retention log.", float64(st.EventsRetained)),
		counterSnap("flowmotif_engine_detections_total", "Motif instances finalized.", float64(st.Detections)),
		gaugeSnap("flowmotif_engine_subscriptions", "Active motif subscriptions.", float64(len(st.Subs))),
		gaugeSnap("flowmotif_engine_plan_groups", "Distinct (shape, delta) evaluation plan groups.", float64(st.PlanGroups)),
		counterSnap("flowmotif_engine_snapshot_builds_total", "Graph snapshots built by the shared-evaluation planner.", float64(st.SnapshotBuilds)),
		counterSnap("flowmotif_http_requests_total", "HTTP requests served.", float64(s.reqs.Load())),
		gaugeSnap("flowmotif_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds()),
	)
	if wal := s.shard.Store(); wal != nil {
		snaps = append(snaps,
			gaugeSnap("flowmotif_store_wal_seq", "Newest WAL sequence number (events ever appended).", float64(wal.Seq())),
			gaugeSnap("flowmotif_store_wal_segments", "WAL segment files on disk.", float64(len(wal.Segments()))),
		)
		if _, at, ok := wal.SnapshotInfo(); ok {
			snaps = append(snaps,
				gaugeSnap("flowmotif_store_snapshot_age_seconds", "Seconds since the last engine checkpoint.", time.Since(at).Seconds()))
		}
	}
	return snaps
}

func (s *Server) handleAddSub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	// Handoff payloads carry catch-up history (up to the coordinator's
	// full retained broadcast on failover), so the public-ingest body
	// bound would wedge re-placement of long streams: allow far more here
	// — /cluster/* is a trusted coordinator-to-member channel.
	maxHandoff := s.maxBody
	if maxHandoff < clusterHandoffMaxBody {
		maxHandoff = clusterHandoffMaxBody
	}
	var h cluster.Handoff
	if !decodeBody(w, r, maxHandoff, &h) {
		return
	}
	if err := s.shard.AddSubscription(h); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "sub": h.Sub.ID})
}

func (s *Server) handleRemoveSub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if !decodeBody(w, r, s.maxBody, &req) {
		return
	}
	h, err := s.shard.RemoveSubscription(req.ID)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// clusterHandoffMaxBody is the minimum body bound for the /cluster/*
// handoff endpoints (1 GiB): subscription moves can carry a failover's
// full catch-up history, far beyond sensible public-ingest limits.
const clusterHandoffMaxBody = 1 << 30

// decodeBody decodes a bounded JSON request body, writing 413 for
// oversized payloads and 400 for malformed ones.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		return false
	}
	return true
}

// wireEvent is the JSON shape of one interaction event.
type wireEvent struct {
	From temporal.NodeID `json:"from"`
	To   temporal.NodeID `json:"to"`
	T    int64           `json:"t"`
	F    float64         `json:"f"`
}

type ingestRequest struct {
	Events []wireEvent `json:"events"`
	// Seq tags a replicated batch with its replication-log sequence
	// number (cluster coordinators set it; see internal/cluster). A seq
	// at or below the last applied one marks a resend whose ack was lost:
	// the shard answers with the recorded ack instead of re-applying.
	Seq int64 `json:"seq"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, s.maxBody, &req) {
		return
	}
	evs := make([]temporal.Event, len(req.Events))
	for i, e := range req.Events {
		evs[i] = temporal.Event{From: e.From, To: e.To, T: e.T, F: e.F}
	}
	ack, err := s.shard.Ingest(evs, req.Seq, requestSpan(r).Context())
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	ack, err := s.shard.Flush(requestSpan(r).Context())
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleSnapshot is the POST /snapshot admin endpoint: checkpoint now.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if !s.Durable() {
		writeErr(w, http.StatusBadRequest, errors.New("server is not durable (start with a data dir)"))
		return
	}
	start := time.Now()
	seq, err := s.Snapshot()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"seq":     seq,
		"tookMs":  time.Since(start).Milliseconds(),
		"durable": true,
	})
}

// handleHealthz reports liveness plus the load-balancer-relevant progress
// counters: the stream watermark, event counts and snapshot freshness.
// With the SLO watchdog tripped the status degrades (still 200 — the
// process is alive and serving; "degraded" plus the reasons is the signal
// a traffic director acts on).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	st := s.Engine().Stats()
	resp := map[string]interface{}{
		"status":     "ok",
		"started":    st.Started,
		"watermark":  st.Watermark,
		"events":     st.EventsIngested,
		"detections": st.Detections,
		"durable":    s.Durable(),
	}
	if s.slo != nil {
		if reasons := s.slo.Reasons(); len(reasons) > 0 {
			resp["status"] = "degraded"
			resp["degradedReasons"] = reasons
		}
	}
	// Advertise the binary wire listener so clients (HTTPMember among
	// them) can upgrade from JSON automatically.
	if port := s.WirePort(); port > 0 {
		resp["wirePort"] = port
	}
	if wal := s.shard.Store(); wal != nil {
		resp["walEvents"] = wal.Seq()
		if seq, at, ok := wal.SnapshotInfo(); ok {
			resp["lastSnapshotSeq"] = seq
			resp["lastSnapshotUnix"] = at.Unix()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveSub reads the sub query parameter; left empty on a server with a
// single subscription it means that one.
func (s *Server) resolveSub(r *http.Request) string {
	sub := r.URL.Query().Get("sub")
	if sub == "" {
		if subs := s.Engine().Subscriptions(); len(subs) == 1 {
			return subs[0].ID
		}
	}
	return sub // "" is "all" for /instances; /topk wants all=1 for that
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	limit, err := intParam(r, "limit", 50)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.shard.Instances(s.resolveSub(r), limit)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":     len(res.Detections),
		"watermark": res.Watermark,
		"started":   res.Started,
		"instances": res.Detections,
	})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	k, err := intParam(r, "k", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// ?all=1 merges across every local subscription (the shard's answer to
	// sub ""); without it a server with several subscriptions wants a name.
	var sub string
	if r.URL.Query().Get("all") == "" {
		if sub = s.resolveSub(r); sub == "" {
			writeErr(w, http.StatusBadRequest, errors.New("sub parameter required (several subscriptions configured; use all=1 for a merged list)"))
			return
		}
	}
	res, err := s.shard.TopK(sub, k)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sub":       sub,
		"count":     len(res.Detections),
		"watermark": res.Watermark,
		"started":   res.Started,
		"instances": res.Detections,
	})
}

func (s *Server) handleSubs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	type wireSub struct {
		ID    string  `json:"id"`
		Motif string  `json:"motif"`
		Path  string  `json:"path"`
		Delta int64   `json:"delta"`
		Phi   float64 `json:"phi"`
	}
	var out []wireSub
	for _, sub := range s.Engine().Subscriptions() {
		out = append(out, wireSub{
			ID:    sub.ID,
			Motif: sub.Motif.Name(),
			Path:  sub.Motif.String(),
			Delta: sub.Delta,
			Phi:   sub.Phi,
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"subs": out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	resp := map[string]interface{}{
		"engine":        s.Engine().Stats(),
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"httpRequests":  s.reqs.Load(),
	}
	if s.obsReg != nil {
		// Full metric snapshot: cluster coordinators pull member histograms
		// through this field and bucket-merge them into their exposition.
		resp["metrics"] = s.obsReg.Snapshot()
	}
	if wal := s.shard.Store(); wal != nil {
		resp["store"] = map[string]interface{}{
			"walEvents": wal.Seq(),
			"segments":  wal.Segments(),
			"recovery":  s.shard.Recovery(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s parameter %q", name, v)
	}
	return n, nil
}

// writeJSON encodes v to a buffer first and only then writes the status
// header: encoding straight into the ResponseWriter would commit the
// success status before a marshal failure could surface, leaving the
// client a truncated body under a 200. An encode failure now yields a
// clean 500 with a JSON error body instead.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Marshalling a map[string]string cannot fail, so the error body
		// itself is safe to encode directly.
		payload, _ := json.Marshal(map[string]string{"error": "response encoding failed: " + err.Error()})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write(append(payload, '\n'))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// errStatus is the one outbound error mapping, for both server roles: a
// shard's or a coordinator's error to the API's status code (which
// wireErrorCode takes on to a wire error code, and HTTPMember.statusErr
// inverts on the coordinator's side).
func errStatus(err error) int {
	switch {
	case errors.Is(err, stream.ErrBehindFrontier):
		return http.StatusConflict
	case errors.Is(err, cluster.ErrUnknownSub), errors.Is(err, stream.ErrUnknownSubscription):
		return http.StatusNotFound
	case errors.Is(err, cluster.ErrNoMembers), errors.Is(err, cluster.ErrMemberDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
