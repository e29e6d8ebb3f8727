// Package server is the serving layer behind cmd/flowmotifd: one HTTP/JSON
// front door (frontdoor.go) over either a single shard (Server, a
// cluster.Shard — the admission core an in-process cluster.LocalMember
// also is — plus the binary wire listener, wire.go, and the SLO watchdog)
// or a cluster coordinator (Coordinator). Both roles answer the
// data-plane API from the same handlers, so a client cannot tell one
// engine from a cluster (TestFrontDoorContract pins it). Ingest order,
// seq dedup, WAL coupling, fail-stop, snapshot and recovery live in the
// shard; the server decodes requests, calls its backend, and maps errors
// onto statuses (errStatus) and wire codes (wireErrorCode).
//
// The data-plane API, the same on both roles:
//
//	POST /ingest    {"events":[{"from":0,"to":1,"t":10,"f":5}, ...]}
//	                append a batch (may be internally unordered, must not
//	                reach behind the stream frontier); answers the ingested
//	                count, the new watermark and the detections the batch
//	                finalized. A daemon honours "seq" as its idempotent-
//	                resend tag; a coordinator assigns seq from its log,
//	                refuses a client's with 400, and acks pipelined
//	                ("pipelined": true, "detections": 0).
//	POST /flush     close every still-open window (end-of-stream marker);
//	                later events must clear the watermark by more than the
//	                largest subscription δ.
//	GET  /instances?sub=ID&limit=N   recent detections, newest first
//	                                 (limit defaults to 50).
//	GET  /topk?sub=ID&k=N            best detections by instance flow
//	                                 (k defaults to 10; 0 is all retained).
//	                Both queries treat an empty sub as every subscription,
//	                merged, and answer sub, count, watermark, started
//	                (false until any event arrived), degraded (always false
//	                on a daemon) and instances.
//	GET  /subs      subscriptions sorted by id: id, motif name, path (a
//	                motif.Parse spec), delta, phi, and on a coordinator the
//	                member that owns each.
//	GET  /stats     the role's statistics (JSON), plus uptime and requests.
//	GET  /metrics   Prometheus text exposition. ?format=prometheus is
//	                accepted and ignored.
//	GET  /healthz   the role's health probe.
//	GET  /debug/traces, /debug/top   flight-recorder traces and the
//	                cost ranking (top.go).
//
// Each role adds its own routes: a daemon POST /snapshot (durable servers)
// and, as a cluster member, POST /cluster/add-sub and /cluster/remove-sub;
// a coordinator POST /members/add, /members/remove and /members/fail.
//
// Errors are JSON {"error": "..."}: 400 for malformed requests, 404 for
// unknown subscriptions, 405 for wrong methods, 409 for batches that
// violate the stream order contract, 413 for request bodies over the body
// bound, 503 from a fail-stopped shard (restart to recover) or a cluster
// with no live member for the request.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// backend is what the front door serves the data-plane API from: a Server
// answers over its one shard, a Coordinator over the cluster. What a
// client can tell apart lives in the handlers, so the roles answer alike;
// only the /stats, /healthz and /metrics bodies are the role's own.
type backend interface {
	// ingest applies one batch (seq: the client's resend tag, 0 for none)
	// and returns the ack POST /ingest answers with.
	ingest(evs []temporal.Event, seq int64, parent obs.SpanContext) (any, error)
	flush(parent obs.SpanContext) (cluster.IngestAck, error)
	// instances and topK answer one subscription, or every one merged
	// when sub is "".
	instances(sub string, limit int, parent obs.SpanContext) ([]*stream.Detection, cluster.Gather, error)
	topK(sub string, k int, parent obs.SpanContext) ([]*stream.Detection, cluster.Gather, error)
	// subs lists the subscriptions and, on a coordinator, their owners.
	subs() ([]cluster.SubSpec, map[string]string)
	stats(parent obs.SpanContext) map[string]any
	health() map[string]any
	metrics() []obs.MetricSnapshot
	// spans fetches one trace's spans; members the rows /debug/top ranks.
	spans(trace string) []obs.SpanRecord
	members(parent obs.SpanContext) []cluster.MemberInfo
}

// frontDoor is the HTTP/JSON data-plane API over a backend, embedded by
// both Server and Coordinator.
type frontDoor struct {
	be      backend
	maxBody int64
	started time.Time
	reqs    atomic.Int64
	runtime *obs.RuntimeStats // nil without a metrics registry
	ro      requestObs
}

// init arms the front door; maxBody <= 0 means the 32 MiB default.
func (fd *frontDoor) init(be backend, maxBody int64, ro requestObs) {
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	fd.be, fd.maxBody, fd.started, fd.ro = be, maxBody, time.Now(), ro
	if ro.reg != nil {
		fd.runtime = obs.NewRuntimeStats()
	}
}

// routes returns a mux serving the shared endpoints; the role adds its own.
func (fd *frontDoor) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", fd.count("ingest", http.MethodPost, fd.handleIngest))
	mux.HandleFunc("/flush", fd.count("flush", http.MethodPost, fd.handleFlush))
	mux.HandleFunc("/instances", fd.count("instances", http.MethodGet, fd.handleInstances))
	mux.HandleFunc("/topk", fd.count("topk", http.MethodGet, fd.handleTopK))
	mux.HandleFunc("/subs", fd.count("subs", http.MethodGet, fd.handleSubs))
	mux.HandleFunc("/stats", fd.count("stats", http.MethodGet, fd.handleStats))
	mux.HandleFunc("/healthz", fd.count("healthz", http.MethodGet, fd.handleHealthz))
	mux.HandleFunc("/metrics", fd.count("metrics", http.MethodGet, fd.handleMetrics))
	mux.HandleFunc("/debug/traces", fd.count("debug.traces", http.MethodGet, fd.handleTraces))
	mux.HandleFunc("/debug/top", fd.count("debug.top", http.MethodGet, fd.handleTop))
	return mux
}

// count wraps an endpoint's handler in the request accounting (requestObs)
// and answers 405 to any method but the endpoint's one.
func (fd *frontDoor) count(name, method string, h http.HandlerFunc) http.HandlerFunc {
	return fd.ro.wrap(&fd.reqs, name, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeErr(w, http.StatusMethodNotAllowed, errors.New(method+" required"))
			return
		}
		h(w, r)
	})
}

// ingestRequest is POST /ingest's body. Events decode straight into
// temporal.Event: encoding/json matches "from", "to", "t" and "f" to its
// fields case-insensitively, and the type carries no tags because
// snapshots and Handoff.Catchup encode it by field name.
type ingestRequest struct {
	Events []temporal.Event `json:"events"`
	// Seq tags a resendable batch: a seq at or below the last applied one
	// marks a resend whose ack was lost, and the shard answers with the
	// recorded ack instead of re-applying. A coordinator refuses it.
	Seq int64 `json:"seq"`
}

func (fd *frontDoor) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !decodeBody(w, r, fd.maxBody, &req) {
		return
	}
	ack, err := fd.be.ingest(req.Events, req.Seq, requestSpan(r).Context())
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (fd *frontDoor) handleFlush(w http.ResponseWriter, r *http.Request) {
	ack, err := fd.be.flush(requestSpan(r).Context())
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (fd *frontDoor) handleInstances(w http.ResponseWriter, r *http.Request) {
	fd.serveQuery(w, r, "limit", 50, fd.be.instances)
}

func (fd *frontDoor) handleTopK(w http.ResponseWriter, r *http.Request) {
	fd.serveQuery(w, r, "k", 10, fd.be.topK)
}

// serveQuery answers GET /instances and /topk: sub "" is every
// subscription merged, and the list bound is the param query parameter
// (default def).
func (fd *frontDoor) serveQuery(w http.ResponseWriter, r *http.Request, param string, def int,
	ask func(string, int, obs.SpanContext) ([]*stream.Detection, cluster.Gather, error),
) {
	n, err := intParam(r, param, def)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sub := r.URL.Query().Get("sub")
	ds, g, err := ask(sub, n, requestSpan(r).Context())
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

func (fd *frontDoor) handleSubs(w http.ResponseWriter, r *http.Request) {
	specs, owner := fd.be.subs()
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	type subRow struct {
		ID     string  `json:"id"`
		Motif  string  `json:"motif"`
		Path   string  `json:"path"`
		Delta  int64   `json:"delta"`
		Phi    float64 `json:"phi"`
		Member string  `json:"member,omitempty"`
	}
	out := make([]subRow, len(specs))
	for i, sp := range specs {
		out[i] = subRow{ID: sp.ID, Motif: sp.Name, Path: sp.Motif, Delta: sp.Delta, Phi: sp.Phi, Member: owner[sp.ID]}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"subs": out})
}

func (fd *frontDoor) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := fd.be.stats(requestSpan(r).Context())
	resp["uptimeSeconds"] = time.Since(fd.started).Seconds()
	resp["httpRequests"] = fd.reqs.Load()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves the role's health probe. It always answers 200
// while the process serves; "status": "degraded" plus the role's reasons
// is the signal a traffic director acts on.
func (fd *frontDoor) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fd.be.health())
}

// handleMetrics serves GET /metrics: the role's exposition set plus the
// process runtime and the front door's own counters, in the Prometheus
// text format, the only format there is.
func (fd *frontDoor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := append(fd.be.metrics(), fd.runtime.Collect()...)
	snaps = append(snaps,
		counterSnap("flowmotif_http_requests_total", "HTTP requests served.", float64(fd.reqs.Load())),
		gaugeSnap("flowmotif_uptime_seconds", "Seconds since the server started.", time.Since(fd.started).Seconds()),
	)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = obs.WritePrometheus(w, snaps)
}

// maxTraceLimit caps GET /debug/traces responses: the flight recorder
// retains thousands of spans, and an unbounded listing would ship them
// all to a curious client.
const maxTraceLimit = 500

// handleTraces serves GET /debug/traces. Without parameters it lists
// recent trace summaries (?limit=N, default 50, capped; ?slowest=1 ranks
// by root-span duration instead of recency). With ?trace=<id> it returns
// that trace's spans — on a coordinator stitched across members, so one
// batch's tree spans the append, every delivery and the member-side
// stages — plus the assembled span tree.
func (fd *frontDoor) handleTraces(w http.ResponseWriter, r *http.Request) {
	tracer := fd.ro.tracer
	if tracer == nil {
		writeErr(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	if trace := r.URL.Query().Get("trace"); trace != "" {
		spans := fd.be.spans(trace)
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"trace": trace,
			"count": len(spans),
			"spans": spans,
			"tree":  obs.BuildSpanTree(spans),
		})
		return
	}
	limit, err := intParam(r, "limit", 50)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	slowest := r.URL.Query().Get("slowest") != ""
	sums := tracer.Summaries(min(limit, maxTraceLimit), slowest)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"total":   tracer.Total(),
		"count":   len(sums),
		"slowest": slowest,
		"traces":  sums,
	})
}

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
// inverts on the coordinator's side). A batch behind the frontier is 409;
// an invalid event (temporal.ErrInvalidEvent), like every other semantic
// refusal, is 400.
func errStatus(err error) int {
	switch {
	case errors.Is(err, temporal.ErrBehindFrontier):
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
