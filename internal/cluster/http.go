package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// HTTPMember drives a remote flowmotifd member daemon (started with
// -member): replicated batches over the binary wire protocol
// (wiretransport.go), everything else over its HTTP/JSON API. Transport
// failures and 5xx responses are wrapped in ErrMemberDown so the
// coordinator retries and eventually fails the member over; 4xx responses
// surface as semantic errors (statusErr is the one mapping, matching what
// the in-process shard returns directly).
type HTTPMember struct {
	id     string
	base   string
	client *http.Client

	// Ingest transport state (wiretransport.go): the wire listener's
	// address, discovered from the member's /healthz ("" until a probe
	// succeeds), then one persistent connection.
	wireMu   sync.Mutex
	wireAddr string
	wireCli  *wire.Client
}

// NewHTTPMember builds a member client for the daemon at baseURL (e.g.
// "http://10.0.0.7:8089"). A nil client uses a default with a 30s timeout.
func NewHTTPMember(id, baseURL string, client *http.Client) *HTTPMember {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPMember{id: id, base: strings.TrimRight(baseURL, "/"), client: client}
}

// ID implements Member.
func (m *HTTPMember) ID() string { return m.id }

// URL returns the member's base URL.
func (m *HTTPMember) URL() string { return m.base }

func (m *HTTPMember) do(method, path string, body, out interface{}) error {
	return m.doTraced(method, path, body, out, "")
}

// doTraced is do with W3C trace propagation: a non-empty traceparent
// travels as the request header of the same name, so the member daemon's
// request span joins the caller's trace.
func (m *HTTPMember) doTraced(method, path string, body, out interface{}, traceparent string) error {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cluster: member %s: marshal: %w", m.id, err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, m.base+path, rd)
	if err != nil {
		return fmt.Errorf("cluster: member %s: %w", m.id, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrMemberDown, m.id, err)
	}
	defer resp.Body.Close()
	// Handoff responses (/cluster/remove-sub) carry retention-bounded
	// catch-up events and sink state; allow up to 1 GiB.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return fmt.Errorf("%w: %s: read response: %v", ErrMemberDown, m.id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return m.statusErr(resp.StatusCode, errBody(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("cluster: member %s: decode %s: %w", m.id, path, err)
		}
	}
	return nil
}

// statusErr is the one inbound error mapping: what a member daemon's
// non-200 HTTP status — or the wire error code standing for it
// (wiretransport.go) — means to the coordinator. It inverts the serving
// layer's outbound mapping: 5xx is a member that is down or fail-stopped
// (retried, then failed over), 409 an order violation, 404 a subscription
// the member does not serve, anything else a semantic rejection.
func (m *HTTPMember) statusErr(status int, msg string) error {
	switch {
	case status >= 500:
		return fmt.Errorf("%w: %s: %d: %s", ErrMemberDown, m.id, status, msg)
	case status == http.StatusConflict:
		return fmt.Errorf("%w: member %s: %s", temporal.ErrBehindFrontier, m.id, msg)
	case status == http.StatusNotFound:
		return fmt.Errorf("%w: member %s: %s", ErrUnknownSub, m.id, msg)
	default:
		return fmt.Errorf("cluster: member %s: %d: %s", m.id, status, msg)
	}
}

func errBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(raw))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// Flush implements Member.
func (m *HTTPMember) Flush() (IngestAck, error) {
	var ack IngestAck
	err := m.do(http.MethodPost, "/flush", nil, &ack)
	return ack, err
}

// AddSubscription implements Member.
func (m *HTTPMember) AddSubscription(h Handoff) error {
	return m.do(http.MethodPost, "/cluster/add-sub", h, nil)
}

// RemoveSubscription implements Member.
func (m *HTTPMember) RemoveSubscription(id string) (Handoff, error) {
	var h Handoff
	err := m.do(http.MethodPost, "/cluster/remove-sub", map[string]string{"id": id}, &h)
	return h, err
}

// queryResponse matches the serving API's /instances and /topk shape.
type queryResponse struct {
	Watermark int64               `json:"watermark"`
	Started   bool                `json:"started"`
	Instances []*stream.Detection `json:"instances"`
}

// Instances implements Member.
func (m *HTTPMember) Instances(sub string, limit int) (QueryResult, error) {
	return m.InstancesTraced(sub, limit, obs.SpanContext{})
}

// InstancesTraced implements tracedQuerier: the coordinator's per-shard
// span context rides the traceparent header.
func (m *HTTPMember) InstancesTraced(sub string, limit int, sc obs.SpanContext) (QueryResult, error) {
	var resp queryResponse
	path := "/instances?limit=" + strconv.Itoa(limit) + "&sub=" + url.QueryEscape(sub)
	if err := m.doTraced(http.MethodGet, path, nil, &resp, traceparentOf(sc)); err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Watermark: resp.Watermark, Started: resp.Started, Detections: resp.Instances}, nil
}

// TopK implements Member.
func (m *HTTPMember) TopK(sub string, k int) (QueryResult, error) {
	return m.TopKTraced(sub, k, obs.SpanContext{})
}

// TopKTraced implements tracedQuerier.
func (m *HTTPMember) TopKTraced(sub string, k int, sc obs.SpanContext) (QueryResult, error) {
	var resp queryResponse
	path := "/topk?k=" + strconv.Itoa(k) + "&sub=" + url.QueryEscape(sub)
	if err := m.doTraced(http.MethodGet, path, nil, &resp, traceparentOf(sc)); err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Watermark: resp.Watermark, Started: resp.Started, Detections: resp.Instances}, nil
}

// traceparentOf renders a span context as a traceparent header value
// ("" for the zero context, meaning no propagation).
func traceparentOf(sc obs.SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return sc.Traceparent()
}

// Stats implements Member.
func (m *HTTPMember) Stats() (MemberStats, error) {
	return m.StatsTraced(obs.SpanContext{})
}

// StatsTraced implements tracedQuerier. The member daemon's GET /stats
// carries its engine's stream.Stats and its full metric snapshot (which
// the coordinator bucket-merges into its own exposition).
func (m *HTTPMember) StatsTraced(sc obs.SpanContext) (MemberStats, error) {
	var resp struct {
		Engine  stream.Stats         `json:"engine"`
		Metrics []obs.MetricSnapshot `json:"metrics"`
	}
	if err := m.doTraced(http.MethodGet, "/stats", nil, &resp, traceparentOf(sc)); err != nil {
		return MemberStats{}, err
	}
	return memberStatsOf(m.id, resp.Engine, resp.Metrics), nil
}

// Traces implements Member: the member daemon's flight-recorder spans
// for one trace, fetched from its GET /debug/traces?trace= endpoint.
func (m *HTTPMember) Traces(trace string) ([]obs.SpanRecord, error) {
	var resp struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	path := "/debug/traces?trace=" + url.QueryEscape(trace)
	if err := m.do(http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Spans, nil
}
