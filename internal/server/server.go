package server

import (
	"errors"
	"log/slog"
	"net"
	"net/http"
	"sync"
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

// Server puts the front door and the wire listener in front of a shard.
// With Config.DataDir set the shard is durable: every acknowledged batch
// is appended to a segmented write-ahead log (internal/store), POST
// /snapshot and POST /flush checkpoint the engine, and New recovers the
// pre-crash state from the newest snapshot plus a replay of the WAL tail.
// With Config.Member set it is a cluster shard (internal/cluster): it may
// start with no subscriptions and serves the handoff endpoints a
// coordinator drives —
//
//	POST /cluster/add-sub     install a subscription (handoff payload:
//	                          spec, finalization bound, catch-up events,
//	                          sink state).
//	POST /cluster/remove-sub  {"id": "..."}: uninstall a subscription and
//	                          return its handoff payload.
type Server struct {
	frontDoor // its metrics registry and tracer (ro) are nil with Config.DisableObs
	shard     *cluster.Shard
	member    bool
	slo       *sloWatchdog // nil unless Config.SLO.LagSLO set (and obs on)

	// Binary wire-protocol listener state (internal/wire; see wire.go).
	// wx is nil with Config.DisableObs — the decode loop's clocks gate on
	// it.
	wx        *wireMetrics
	wireMu    sync.Mutex
	wireLn    net.Listener
	wirePort  int
	wireConns map[net.Conn]struct{}
	wireWG    sync.WaitGroup
}

// New builds a Server from cfg: the engine, its query sinks and — with
// cfg.DataDir set — the event store, assembled into a shard, which
// recovers the pre-crash state from the store (cluster.NewShard).
func New(cfg Config) (*Server, error) {
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
	s := &Server{member: cfg.Member}
	s.init(s, cfg.MaxBodyBytes, requestObs{reg: reg, tracer: tracer, slow: cfg.SlowRequest, logger: cfg.Logger})
	if !cfg.DisableObs {
		// Registered whether or not a wire listener is armed, so the
		// metrics catalog (and its drift check) sees every series a server
		// can expose.
		s.wx = newWireMetrics(reg)
	}
	recent, topk := cluster.NewQuerySinks(cfg.Recent, cfg.TopK)
	eng, err := stream.NewEngine(stream.Config{
		Subs:       cfg.Subs,
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

// Handler returns the HTTP API handler: the front door's endpoints plus
// POST /snapshot and, on a member, the /cluster/* handoff endpoints.
func (s *Server) Handler() http.Handler {
	mux := s.routes()
	mux.HandleFunc("/snapshot", s.count("snapshot", http.MethodPost, s.handleSnapshot))
	if s.member {
		mux.HandleFunc("/cluster/add-sub", s.count("cluster.add-sub", http.MethodPost, s.handleAddSub))
		mux.HandleFunc("/cluster/remove-sub", s.count("cluster.remove-sub", http.MethodPost, s.handleRemoveSub))
	}
	return mux
}

// The backend methods: the front door's data plane over the one shard.

func (s *Server) ingest(evs []temporal.Event, seq int64, parent obs.SpanContext) (any, error) {
	ack, err := s.shard.Ingest(evs, seq, parent)
	return ack, err
}

func (s *Server) flush(parent obs.SpanContext) (cluster.IngestAck, error) {
	return s.shard.Flush(parent)
}

func (s *Server) instances(sub string, limit int, _ obs.SpanContext) ([]*stream.Detection, cluster.Gather, error) {
	return gathered(s.shard.Instances(sub, limit))
}

func (s *Server) topK(sub string, k int, _ obs.SpanContext) ([]*stream.Detection, cluster.Gather, error) {
	return gathered(s.shard.TopK(sub, k))
}

// gathered states a shard's answer the way a coordinator's gather does; a
// single shard is never degraded.
func gathered(r cluster.QueryResult, err error) ([]*stream.Detection, cluster.Gather, error) {
	return r.Detections, cluster.Gather{Watermark: r.Watermark, Started: r.Started}, err
}

func (s *Server) subs() ([]cluster.SubSpec, map[string]string) {
	var specs []cluster.SubSpec
	for _, sub := range s.Engine().Subscriptions() {
		specs = append(specs, cluster.SpecOf(sub))
	}
	return specs, nil
}

func (s *Server) stats(obs.SpanContext) map[string]any {
	resp := map[string]any{"engine": s.Engine().Stats()}
	if s.ro.reg != nil {
		// Full metric snapshot: cluster coordinators pull member histograms
		// through this field and bucket-merge them into their exposition.
		resp["metrics"] = s.ro.reg.Snapshot()
	}
	if wal := s.shard.Store(); wal != nil {
		resp["store"] = map[string]interface{}{
			"walEvents": wal.Seq(),
			"segments":  wal.Segments(),
			"recovery":  s.shard.Recovery(),
		}
	}
	return resp
}

// health reports the load-balancer-relevant progress counters: the stream
// watermark, event counts and snapshot freshness. A tripped SLO watchdog
// degrades the status.
func (s *Server) health() map[string]any {
	st := s.Engine().Stats()
	resp := map[string]any{
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
	// Advertise the binary wire listener: a coordinator replicates to a
	// member over it only, and reads the port here.
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
	return resp
}

// metrics is the server's exposition set: the registry contents
// (histograms and any registered scalars) plus the point-in-time
// engine/store gauges that live in Stats structs.
func (s *Server) metrics() []obs.MetricSnapshot {
	snaps := s.ro.reg.Snapshot()
	st := s.Engine().Stats()
	snaps = append(snaps,
		gaugeSnap("flowmotif_engine_watermark", "Stream watermark (event time).", float64(st.Watermark)),
		counterSnap("flowmotif_engine_events_ingested_total", "Events accepted by the engine.", float64(st.EventsIngested)),
		gaugeSnap("flowmotif_engine_events_retained", "Events currently in the retention log.", float64(st.EventsRetained)),
		counterSnap("flowmotif_engine_detections_total", "Motif instances finalized.", float64(st.Detections)),
		gaugeSnap("flowmotif_engine_subscriptions", "Active motif subscriptions.", float64(len(st.Subs))),
		gaugeSnap("flowmotif_engine_plan_groups", "Distinct (shape, delta) evaluation plan groups.", float64(st.PlanGroups)),
		counterSnap("flowmotif_engine_snapshot_builds_total", "Graph snapshots built by the shared-evaluation planner.", float64(st.SnapshotBuilds)),
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

func (s *Server) spans(trace string) []obs.SpanRecord { return s.ro.tracer.Spans(trace) }

func (s *Server) members(obs.SpanContext) []cluster.MemberInfo {
	return []cluster.MemberInfo{{MemberStats: s.shard.Stats("")}}
}

func (s *Server) handleAddSub(w http.ResponseWriter, r *http.Request) {
	// Handoff payloads carry catch-up history (up to the coordinator's
	// full retained broadcast on failover), so the public-ingest body
	// bound would wedge re-placement of long streams: allow far more here
	// — /cluster/* is a trusted coordinator-to-member channel.
	var h cluster.Handoff
	if !decodeBody(w, r, max(s.maxBody, clusterHandoffMaxBody), &h) {
		return
	}
	if err := s.shard.AddSubscription(h); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "sub": h.Sub.ID})
}

func (s *Server) handleRemoveSub(w http.ResponseWriter, r *http.Request) {
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

// handleSnapshot is the POST /snapshot admin endpoint: checkpoint now.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
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
