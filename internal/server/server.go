// Package server exposes a streaming motif-detection engine
// (internal/stream) over an HTTP/JSON API — the serving layer behind
// cmd/flowmotifd.
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
//	GET  /stats     engine + server statistics.
//	GET  /metrics   flat expvar-style metrics: engine gauges plus
//	                per-endpoint request counts and latencies;
//	                ?format=prometheus serves the text exposition format
//	                with full latency histograms instead.
//	GET  /healthz   health probe: watermark, event counts, last snapshot.
//	POST /snapshot  checkpoint the engine + sink state to the data dir
//	                (durable servers only).
//
// With Config.DataDir set the server is durable: every acknowledged batch
// is appended to a segmented write-ahead log (internal/store), POST
// /snapshot checkpoints the engine, and New recovers the pre-crash state
// from the newest snapshot plus a replay of the WAL tail.
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
// Config.MaxBodyBytes.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/obs"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Subs are the motif subscriptions served by the engine.
	Subs []stream.Subscription
	// Workers is the per-band enumeration parallelism (<= 1 serial).
	Workers int
	// Slack extends event retention beyond the algorithmic minimum.
	Slack int64
	// Recent bounds the in-memory ring of recent detections served by
	// GET /instances (default 1024).
	Recent int
	// TopK bounds the per-subscription top list served by GET /topk
	// (default 10).
	TopK int
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
	// Obs, when non-nil, is the metrics registry the server, its engine and
	// its store record into; when nil (and DisableObs is false) the server
	// creates one. GET /metrics?format=prometheus serves its contents.
	Obs *obs.Registry
	// DisableObs turns metric collection off entirely (no registry, no
	// per-round histograms); /metrics still serves the flat map.
	DisableObs bool
	// Logger receives the server's structured logs (slow-round warnings
	// among them); nil disables logging.
	Logger *slog.Logger
	// SlowRound is the engine's slow-finalize-round warning threshold
	// (0: no warnings). Requires Logger.
	SlowRound time.Duration
	// Tracer is the trace flight recorder the server and its engine
	// record spans into; nil (and DisableObs false) creates one, served
	// by GET /debug/traces. DisableObs disables tracing entirely.
	Tracer *obs.Tracer
	// SlowRequest tail-samples slow HTTP requests: a request slower than
	// this retains its trace in the flight recorder and logs a warning
	// carrying the trace ID (0: off).
	SlowRequest time.Duration
	// SLO configures the burn-rate watchdog (DESIGN.md §14): with
	// SLO.LagSLO set (and observability on) a goroutine samples detection
	// lag and HTTP error rates, exports flowmotif_slo_burn_rate gauges, and
	// degrades /healthz when both burn windows run hot.
	SLO SLOConfig
	// WireMaxFrameBytes bounds binary wire-protocol frame payloads
	// (default wire.DefaultMaxFrameBytes, matching MaxBodyBytes' default);
	// oversized frames are rejected with a typed error frame, mirroring
	// the HTTP 413 behavior.
	WireMaxFrameBytes int
}

// RecoveryStats reports what New rebuilt from a data dir.
type RecoveryStats struct {
	// FromSnapshot is true when a snapshot seeded the engine state.
	FromSnapshot bool `json:"fromSnapshot"`
	// SnapshotSeq is the WAL position of that snapshot.
	SnapshotSeq int64 `json:"snapshotSeq"`
	// Replayed counts the WAL-tail events re-ingested after the snapshot.
	Replayed int64 `json:"replayed"`
}

// serverSnapshot is the snapshot payload: the engine state plus the query
// sinks' contents, so restart resumes with /instances and /topk intact.
type serverSnapshot struct {
	Engine *stream.EngineSnapshot `json:"engine"`
	Recent stream.MemorySinkState `json:"recent"`
	TopK   stream.TopKSinkState   `json:"topk"`
}

// Server wires an Engine to query sinks and HTTP handlers.
type Server struct {
	engine    *stream.Engine
	recent    *stream.MemorySink
	topk      *stream.TopKSink
	st        *store.Store // nil when not durable
	recovered RecoveryStats
	member    bool
	maxBody   int64
	started   time.Time
	reqs      atomic.Int64
	obsReg    *obs.Registry     // nil with Config.DisableObs
	tracer    *obs.Tracer       // nil with Config.DisableObs
	runtime   *obs.RuntimeStats // nil with Config.DisableObs
	slo       *sloWatchdog      // nil unless Config.SLO.LagSLO set (and obs on)
	ro        requestObs

	// subMu guards subIDs, which cluster handoffs mutate at runtime.
	subMu  sync.RWMutex
	subIDs map[string]bool

	// epMu guards endpoint latency metrics (GET /metrics).
	epMu sync.Mutex
	eps  map[string]*endpointMetrics

	// lastSeq/lastAck deduplicate seq-tagged replicated ingest (see
	// ingestRequest.Seq); guarded by ingestMu. Not persisted: after a
	// member restart a resend is rejected as behind-frontier and the
	// coordinator fails the member over, regenerating from history.
	lastSeq int64
	lastAck ingestResponse
	// walErr poisons ingest after a WAL append failed post-apply: the
	// engine and WAL have diverged, so the server fail-stops ingest
	// (every batch answers 500) instead of re-applying a retried batch
	// or silently recording a WAL with a hole. A restart recovers from
	// the WAL + snapshot. Guarded by ingestMu.
	walErr error

	// ingestMu serializes /ingest, /flush and snapshot *capture* so (a)
	// the per-request "detections finalized by this batch" diff of two
	// Stats snapshots is not interleaved by a concurrent writer, (b)
	// engine ingest and WAL append form one atomic unit, and (c) a
	// snapshot's WAL seq always matches the engine state it captures.
	ingestMu sync.Mutex
	// snapMu serializes snapshot persistence (marshal + write + rename),
	// which deliberately happens *outside* ingestMu so a slow checkpoint
	// of a large engine state never stalls ingestion. Lock order where
	// both are needed: snapMu before ingestMu.
	snapMu sync.Mutex

	// Binary wire-protocol listener state (internal/wire; see wire.go).
	// wx is nil with Config.DisableObs — the decode loop's clocks gate on
	// it. The shared interner maps symbolic-mode labels onto one
	// server-wide node-id space across connections.
	wx           *wireMetrics
	wireMaxFrame int
	wireInternMu sync.RWMutex
	wireIntern   *temporal.Interner
	wireMu       sync.Mutex
	wireLn       net.Listener
	wirePort     int
	wireConns    map[net.Conn]struct{}
	wireWG       sync.WaitGroup
}

// New builds a Server (and its engine) from cfg. With cfg.DataDir set it
// also opens the event store and recovers: the newest usable snapshot is
// restored into the engine and sinks, then the WAL tail is replayed
// through normal ingestion, regenerating every detection the crash lost.
// If no snapshot is usable (none taken, corrupt, or the subscriptions
// changed), the whole WAL is replayed from scratch — the log, not the
// snapshot, is the source of truth.
func New(cfg Config) (*Server, error) {
	if cfg.Recent <= 0 {
		cfg.Recent = 1024
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if len(cfg.Subs) == 0 && !cfg.Member {
		return nil, errors.New("server: at least one subscription required (cluster members start empty)")
	}
	// One registry per server: engine, store and HTTP instruments land
	// together, so one scrape (or one /stats metrics payload for cluster
	// transport) covers the whole pipeline.
	reg := cfg.Obs
	tracer := cfg.Tracer
	if cfg.DisableObs {
		reg = nil
		tracer = nil
	} else {
		if reg == nil {
			reg = obs.NewRegistry()
		}
		if tracer == nil {
			tracer = obs.NewTracer(0)
		}
	}
	s := &Server{
		recent:  stream.NewMemorySink(cfg.Recent),
		topk:    stream.NewTopKSink(cfg.TopK),
		member:  cfg.Member,
		maxBody: cfg.MaxBodyBytes,
		started: time.Now(),
		obsReg:  reg,
		tracer:  tracer,
		ro:      requestObs{reg: reg, tracer: tracer, slow: cfg.SlowRequest, logger: cfg.Logger},
		subIDs:  map[string]bool{},
		eps:     map[string]*endpointMetrics{},
	}
	if !cfg.DisableObs {
		s.runtime = obs.NewRuntimeStats()
		// Registered whether or not a wire listener is armed, so the
		// metrics catalog (and its drift check) sees every series a server
		// can expose.
		s.wx = newWireMetrics(reg)
	}
	s.wireMaxFrame = cfg.WireMaxFrameBytes
	if s.wireMaxFrame <= 0 {
		s.wireMaxFrame = wire.DefaultMaxFrameBytes
	}
	s.wireIntern = temporal.NewInterner()
	eng, err := stream.NewEngine(stream.Config{
		Subs:       cfg.Subs,
		Workers:    cfg.Workers,
		Slack:      cfg.Slack,
		Obs:        reg,
		DisableObs: cfg.DisableObs,
		Logger:     cfg.Logger,
		SlowRound:  cfg.SlowRound,
		Tracer:     tracer,
	}, stream.MultiSink{s.recent, s.topk})
	if err != nil {
		return nil, err
	}
	s.engine = eng
	for _, sub := range eng.Subscriptions() {
		s.subIDs[sub.ID] = true
	}
	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir, store.Options{
			Sync:          cfg.SyncWrites,
			SegmentEvents: cfg.SegmentEvents,
			Obs:           reg,
		})
		if err != nil {
			return nil, err
		}
		if err := s.recover(st); err != nil {
			st.Close()
			return nil, err
		}
		s.st = st
	}
	if cfg.SLO.LagSLO > 0 && reg != nil {
		s.slo = newSLOWatchdog(cfg.SLO, reg, tracer, cfg.Logger)
	}
	return s, nil
}

// recover restores the newest usable snapshot and replays the WAL tail.
func (s *Server) recover(st *store.Store) error {
	from := int64(0)
	if snap, err := st.LoadSnapshot(); err != nil {
		return err
	} else if snap != nil {
		var ss serverSnapshot
		if json.Unmarshal(snap.Payload, &ss) == nil && ss.Engine != nil {
			// A failed restore (e.g. the operator changed the -sub set) is
			// not fatal: fall through to a full WAL replay.
			if err := s.engine.Restore(ss.Engine); err == nil {
				s.recent.Restore(ss.Recent)
				s.topk.Restore(ss.TopK)
				s.recovered.FromSnapshot = true
				s.recovered.SnapshotSeq = snap.Seq
				from = snap.Seq
			}
		}
	}
	batch := make([]temporal.Event, 0, 4096)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, err := s.engine.Ingest(batch)
		batch = batch[:0]
		return err
	}
	var ingestErr error
	err := st.Replay(from, func(_ int64, ev temporal.Event) bool {
		batch = append(batch, ev)
		s.recovered.Replayed++
		if len(batch) == cap(batch) {
			if ingestErr = flush(); ingestErr != nil {
				return false
			}
		}
		return true
	})
	if err == nil && ingestErr == nil {
		ingestErr = flush()
	}
	if err == nil {
		err = ingestErr
	}
	if err != nil {
		return fmt.Errorf("server: recovery replay: %w", err)
	}
	return nil
}

// Engine returns the underlying stream engine (e.g. for direct feeding in
// tests and demos).
func (s *Server) Engine() *stream.Engine { return s.engine }

// Durable reports whether the server persists to a data dir.
func (s *Server) Durable() bool { return s.st != nil }

// Recovery reports what New rebuilt from the data dir (zero value for
// non-durable servers or empty dirs).
func (s *Server) Recovery() RecoveryStats { return s.recovered }

// Snapshot checkpoints the engine and sink state to the data dir,
// returning the WAL seq it reflects. Recovery after a crash then replays
// only the WAL tail past this point. Only the in-memory state *capture*
// blocks ingestion; serialization and disk I/O run outside the ingest
// lock.
func (s *Server) Snapshot() (int64, error) {
	if s.st == nil {
		return 0, errors.New("server: not durable (no data dir configured)")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.ingestMu.Lock()
	seq, snap, err := s.captureSnapshotLocked()
	s.ingestMu.Unlock()
	if err != nil {
		return 0, err
	}
	return seq, s.writeSnapshot(seq, snap)
}

// captureSnapshotLocked must be called with ingestMu held, so the
// captured WAL seq and engine state agree. The returned state is a
// consistent point-in-time copy safe to serialize after the lock is
// released. A fail-stopped engine refuses the capture (see
// stream.ErrFailStopped) — checkpointing its diverged log would launder
// the partial batch into the authoritative recovery state.
func (s *Server) captureSnapshotLocked() (int64, serverSnapshot, error) {
	eng, err := s.engine.Snapshot()
	if err != nil {
		return 0, serverSnapshot{}, err
	}
	return s.st.Seq(), serverSnapshot{
		Engine: eng,
		Recent: s.recent.Snapshot(),
		TopK:   s.topk.Snapshot(),
	}, nil
}

// writeSnapshot must be called with snapMu held (ordering concurrent
// checkpoints so an older capture can never overwrite a newer one).
func (s *Server) writeSnapshot(seq int64, snap serverSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("server: snapshot marshal: %w", err)
	}
	return s.st.WriteSnapshot(seq, payload)
}

// Close stops the SLO watchdog and the wire listener, flushes a final
// snapshot (durable servers; best-effort — the WAL alone already suffices
// for recovery) and closes the store. The server must not serve requests
// afterwards.
func (s *Server) Close() error {
	if s.slo != nil {
		s.slo.stopWatch()
		s.slo = nil
	}
	s.StopWire()
	if s.st == nil {
		return nil
	}
	_, snapErr := s.Snapshot()
	if err := s.st.Close(); err != nil {
		return err
	}
	return snapErr
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

func (s *Server) endpoint(name string) *endpointMetrics {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	m := s.eps[name]
	if m == nil {
		m = &endpointMetrics{}
		s.eps[name] = m
	}
	return m
}

func (s *Server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.ro.wrap(&s.reqs, s.endpoint(name), name, h)
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

// handleMetrics serves metrics: by default the flat expvar-style map
// (engine gauges plus per-endpoint request counts and latencies);
// ?format=prometheus switches to the text exposition format, which adds
// the full latency histograms (finalize stages, detection lag, WAL and
// request timings).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if r.URL.Query().Get("format") == "prometheus" {
		writePrometheusResponse(w, s.prometheusSnapshots())
		return
	}
	st := s.engine.Stats()
	out := map[string]interface{}{
		"engine.watermark":       st.Watermark,
		"engine.started":         st.Started,
		"engine.events_ingested": st.EventsIngested,
		"engine.events_retained": st.EventsRetained,
		"engine.events_evicted":  st.EventsEvicted,
		"engine.batches":         st.Batches,
		"engine.detections":      st.Detections,
		"engine.subscriptions":   len(st.Subs),
		// Shared-evaluation planner gauges (DESIGN.md §11): plan-group
		// count, snapshots built, bands served per snapshot (the reuse
		// ratio), phase-P1 runs and matches served from shared lists.
		"engine.plan_groups":          st.PlanGroups,
		"engine.snapshot_builds":      st.SnapshotBuilds,
		"engine.snapshot_reuse_ratio": st.SnapshotReuse,
		"engine.match_runs":           st.MatchRuns,
		"engine.matches_shared":       st.MatchesShared,
		"http.requests":               s.reqs.Load(),
		"uptime_seconds":              time.Since(s.started).Seconds(),
	}
	if s.st != nil {
		// wal_seq is the newest WAL sequence number — the count of events
		// ever appended, not the events currently retained on disk (the old
		// wal_events name suggested the latter).
		out["store.wal_seq"] = s.st.Seq()
		out["store.wal_segments"] = len(s.st.Segments())
		if _, at, ok := s.st.SnapshotInfo(); ok {
			out["store.snapshot_age_seconds"] = time.Since(at).Seconds()
		}
	}
	s.epMu.Lock()
	eps := make(map[string]*endpointMetrics, len(s.eps))
	for name, m := range s.eps {
		eps[name] = m
	}
	s.epMu.Unlock()
	flatEndpointMetrics(out, eps, s.obsReg)
	writeJSON(w, http.StatusOK, out)
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
	st := s.engine.Stats()
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
	if s.st != nil {
		snaps = append(snaps,
			gaugeSnap("flowmotif_store_wal_seq", "Newest WAL sequence number (events ever appended).", float64(s.st.Seq())),
			gaugeSnap("flowmotif_store_wal_segments", "WAL segment files on disk.", float64(len(s.st.Segments()))),
		)
		if _, at, ok := s.st.SnapshotInfo(); ok {
			snaps = append(snaps,
				gaugeSnap("flowmotif_store_snapshot_age_seconds", "Seconds since the last engine checkpoint.", time.Since(at).Seconds()))
		}
	}
	return snaps
}

// AddSubscription installs a cluster handoff: catch-up events and
// finalization bound into the engine, moved detections into the query
// sinks (cluster.InstallHandoff — the same protocol as LocalMember).
// Exposed over POST /cluster/add-sub on member servers.
func (s *Server) AddSubscription(h cluster.Handoff) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	id, err := cluster.InstallHandoff(s.engine, s.recent, s.topk, h)
	if err != nil {
		return err
	}
	s.subMu.Lock()
	s.subIDs[id] = true
	s.subMu.Unlock()
	return nil
}

// RemoveSubscription uninstalls a subscription and returns its handoff
// (engine bound + catch-up events + sink state). Exposed over POST
// /cluster/remove-sub on member servers.
func (s *Server) RemoveSubscription(id string) (cluster.Handoff, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	h, err := cluster.ExtractHandoff(s.engine, s.recent, s.topk, id)
	if err != nil {
		return cluster.Handoff{}, err
	}
	s.subMu.Lock()
	delete(s.subIDs, id)
	s.subMu.Unlock()
	return h, nil
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
	if err := s.AddSubscription(h); err != nil {
		writeErr(w, http.StatusBadRequest, err)
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
	h, err := s.RemoveSubscription(req.ID)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, stream.ErrUnknownSubscription) {
			status = http.StatusNotFound
		}
		writeErr(w, status, err)
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
	// the server answers with the recorded ack instead of re-applying.
	Seq int64 `json:"seq"`
}

type ingestResponse struct {
	Ingested   int   `json:"ingested"`
	Watermark  int64 `json:"watermark"`
	Detections int64 `json:"detections"` // finalized by this batch
	Seq        int64 `json:"seq,omitempty"`
	Dup        bool  `json:"dup,omitempty"`       // idempotent resend no-op
	Pipelined  bool  `json:"pipelined,omitempty"` // coordinator ack: applied asynchronously
	// Trace is the batch's trace ID: the key into GET /debug/traces for the
	// span tree following this batch from ingest ack to emit.
	Trace string `json:"trace,omitempty"`
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
	// Pre-sort (stably, matching the engine's internal order) so the WAL
	// records the exact sequence the engine processed.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	resp, status, err := s.applyIngest(evs, req.Seq, requestSpan(r).Context())
	if err != nil {
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyIngest is the transport-independent ingest core shared by the
// JSON handler and the binary wire listener: seq-tagged resend dedup,
// engine apply, WAL append with fail-stop poisoning, and last-ack
// recording, all as one atomic unit under ingestMu. Events must already
// be sorted by T (stable). The returned status is the HTTP taxonomy both
// transports translate from (200/400/409/500); err is non-nil for every
// non-200.
//
//flowmotif:hotpath
func (s *Server) applyIngest(evs []temporal.Event, seq int64, parent obs.SpanContext) (ingestResponse, int, error) {
	s.ingestMu.Lock()
	if s.walErr != nil {
		err := s.walErr
		s.ingestMu.Unlock()
		return ingestResponse{}, http.StatusInternalServerError,
			fmt.Errorf("wal broken, ingest fail-stopped (restart to recover): %w", err)
	}
	if seq > 0 && seq <= s.lastSeq {
		resp := s.lastAck
		resp.Dup = true
		s.ingestMu.Unlock()
		return resp, http.StatusOK, nil
	}
	ack, err := s.engine.IngestTraced(evs, parent)
	if err == nil && s.st != nil {
		if perr := s.st.Append(evs); perr != nil {
			// The engine applied the batch but the WAL did not: poison
			// ingest (fail-stop) so a replication retry cannot re-apply the
			// batch and later batches cannot widen the engine/WAL gap.
			s.walErr = perr
			if seq > 0 {
				s.lastSeq = seq
			}
			s.ingestMu.Unlock()
			return ingestResponse{}, http.StatusInternalServerError, fmt.Errorf("persist: %w", perr)
		}
	}
	resp := ingestResponse{
		Ingested:   ack.Ingested,
		Watermark:  ack.Watermark,
		Detections: ack.Detections,
		Seq:        seq,
		Trace:      ack.Trace,
	}
	if err == nil && seq > 0 {
		s.lastSeq = seq
		s.lastAck = resp
	}
	s.ingestMu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, stream.ErrBehindFrontier):
			status = http.StatusConflict
		case errors.Is(err, stream.ErrFailStopped):
			// The engine poisoned itself mid-batch (partial append); like
			// the WAL fail-stop, only a restart recovers.
			status = http.StatusInternalServerError
		}
		return ingestResponse{}, status, err
	}
	return resp, http.StatusOK, nil
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if err := s.engine.Err(); err != nil {
		// Same contract as ingest on a poisoned engine: 500, not an
		// empty-success flush that silently foreclosed nothing.
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if s.st != nil {
		s.snapMu.Lock() // before ingestMu, per the documented lock order
		defer s.snapMu.Unlock()
	}
	s.ingestMu.Lock()
	ack := s.engine.FlushTraced(requestSpan(r).Context())
	var seq int64
	var snap serverSnapshot
	var snapErr error
	if s.st != nil {
		seq, snap, snapErr = s.captureSnapshotLocked()
	}
	s.ingestMu.Unlock()
	if snapErr != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("persist flush: %w", snapErr))
		return
	}
	if s.st != nil {
		// A flush forecloses windows beyond the watermark; checkpointing
		// makes that frontier durable, so a post-crash replay cannot
		// re-open (and re-emit from) windows the flush already closed.
		if err := s.writeSnapshot(seq, snap); err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("persist flush: %w", err))
			return
		}
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Watermark:  ack.Watermark,
		Detections: ack.Detections,
		Trace:      ack.Trace,
	})
}

// handleSnapshot is the POST /snapshot admin endpoint: checkpoint now.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.st == nil {
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
	st := s.engine.Stats()
	resp := map[string]interface{}{
		"status":     "ok",
		"started":    st.Started,
		"watermark":  st.Watermark,
		"events":     st.EventsIngested,
		"detections": st.Detections,
		"durable":    s.st != nil,
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
	if s.st != nil {
		resp["walEvents"] = s.st.Seq()
		if seq, at, ok := s.st.SnapshotInfo(); ok {
			resp["lastSnapshotSeq"] = seq
			resp["lastSnapshotUnix"] = at.Unix()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) resolveSub(w http.ResponseWriter, r *http.Request) (string, bool) {
	sub := r.URL.Query().Get("sub")
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	if sub == "" {
		if len(s.subIDs) == 1 {
			for id := range s.subIDs {
				return id, true
			}
		}
		return "", true // "all" for /instances; /topk rejects below
	}
	if !s.subIDs[sub] {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown subscription %q", sub))
		return "", false
	}
	return sub, true
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	sub, ok := s.resolveSub(w, r)
	if !ok {
		return
	}
	limit, err := intParam(r, "limit", 50)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ds := s.recent.Recent(sub, limit)
	wm, started := s.engine.Watermark()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":     len(ds),
		"watermark": wm,
		"started":   started,
		"instances": ds,
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
	wm, started := s.engine.Watermark()
	// ?all=1 merges across every local subscription — the per-shard half
	// of the cluster's distributed top-k (internal/cluster.MergeTopK).
	if r.URL.Query().Get("all") != "" {
		var lists [][]*stream.Detection
		for _, sub := range s.engine.Subscriptions() {
			lists = append(lists, s.topk.Top(sub.ID))
		}
		ds := cluster.MergeTopK(lists, k)
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"sub":       "",
			"count":     len(ds),
			"watermark": wm,
			"started":   started,
			"instances": ds,
		})
		return
	}
	sub, ok := s.resolveSub(w, r)
	if !ok {
		return
	}
	if sub == "" {
		writeErr(w, http.StatusBadRequest, errors.New("sub parameter required (several subscriptions configured; use all=1 for a merged list)"))
		return
	}
	ds := s.topk.Top(sub)
	if k > 0 && k < len(ds) {
		ds = ds[:k]
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sub":       sub,
		"count":     len(ds),
		"watermark": wm,
		"started":   started,
		"instances": ds,
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
	for _, sub := range s.engine.Subscriptions() {
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
		"engine":        s.engine.Stats(),
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"httpRequests":  s.reqs.Load(),
	}
	if s.obsReg != nil {
		// Full metric snapshot: cluster coordinators pull member histograms
		// through this field and bucket-merge them into their exposition.
		resp["metrics"] = s.obsReg.Snapshot()
	}
	if s.st != nil {
		resp["store"] = map[string]interface{}{
			"walEvents": s.st.Seq(),
			"segments":  s.st.Segments(),
			"recovery":  s.recovered,
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

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
