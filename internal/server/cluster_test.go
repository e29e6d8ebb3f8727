package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/core"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// memberDaemon spins up one cluster-member flowmotifd (httptest server
// plus the wire listener replication arrives on, as flowmotifd -member
// arms it) and returns its HTTPMember client.
func memberDaemon(t *testing.T, id string) (*cluster.HTTPMember, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Member: true, Recent: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.StartWire("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	kill := func() {
		ts.Close()
		srv.StopWire()
	}
	t.Cleanup(kill)
	m := cluster.NewHTTPMember(id, ts.URL, ts.Client())
	t.Cleanup(m.CloseWire)
	memberKills[m] = kill
	return m, ts
}

// TestClusterOverHTTP is the HTTP-transport oracle: a coordinator driving
// three member daemons over the wire (handoffs, broadcast, scatter-gather,
// a mid-stream graceful drain, a mid-stream member kill) serves exactly
// the batch-search instance set — end to end through the coordinator's own
// HTTP handler.
func TestClusterOverHTTP(t *testing.T) {
	evs, err := gen.Bitcoin(gen.BitcoinConfig{Nodes: 120, SeedTxns: 300, Duration: 15000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	subs := []stream.Subscription{
		{ID: "tri", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1},
		{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 300, Phi: 0},
		{ID: "twohop", Motif: motif.MustPath(0, 1, 0), Delta: 400, Phi: 0},
	}

	m0, _ := memberDaemon(t, "m0")
	m1, ts1 := memberDaemon(t, "m1")
	m2, _ := memberDaemon(t, "m2")
	c, err := cluster.New(cluster.Config{
		Members:    []cluster.Member{m0, m1, m2},
		Subs:       subs,
		RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCoordinator(c, 0)
	front := httptest.NewServer(cs.Handler())
	defer front.Close()
	client := front.Client()

	// Feed through the coordinator's HTTP ingest in random batches.
	rng := rand.New(rand.NewSource(8))
	third := len(evs) / 3
	feed := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; {
			n := 1 + rng.Intn(64)
			if i+n > hi {
				n = hi - i
			}
			wire := make([]map[string]interface{}, n)
			for j, e := range evs[i : i+n] {
				wire[j] = map[string]interface{}{"from": e.From, "to": e.To, "t": e.T, "f": e.F}
			}
			resp, body := postJSON(t, client, front.URL+"/ingest", map[string]interface{}{"events": wire})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
			}
			i += n
		}
	}
	feed(0, third)

	// Graceful drain over the admin API: m1's subscriptions hand off over
	// the wire (catch-up events + sink state through /cluster/remove-sub
	// and /cluster/add-sub).
	if resp, body := postJSON(t, client, front.URL+"/members/remove", map[string]string{"id": "m1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("members/remove: %d: %s", resp.StatusCode, body)
	}
	feed(third, 2*third)

	// Kill m2's daemon entirely: closing its HTTP server and wire listener
	// turns every later call into a transport error, so the next broadcast
	// marks it down and re-places its subscriptions from coordinator
	// history.
	_ = ts1 // m1 already drained above
	owned := 0
	for _, owner := range c.Placement() {
		if owner == "m2" {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("test premise broken: m2 owns no subscriptions before the kill")
	}
	killMember(t, m2)
	feed(2*third, len(evs))
	if resp, body := postJSON(t, client, front.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}
	var st struct {
		Cluster cluster.ClusterStats `json:"cluster"`
	}
	getJSON(t, client, front.URL+"/stats", &st)
	if st.Cluster.Downs != 1 {
		t.Fatalf("Downs = %d after daemon kill, want 1", st.Cluster.Downs)
	}

	// Oracle: served instances == batch search, per subscription.
	total := 0
	for _, sub := range subs {
		want, err := core.Collect(g, sub.Motif, core.Params{Delta: sub.Delta, Phi: sub.Phi}, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := map[string]bool{}
		for _, in := range want {
			wantKeys[batchKey(g, in)] = true
		}
		var got struct {
			Count     int                 `json:"count"`
			Watermark int64               `json:"watermark"`
			Instances []*stream.Detection `json:"instances"`
		}
		resp := getJSON(t, client, front.URL+"/instances?limit=0&sub="+sub.ID, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("instances %s: %d", sub.ID, resp.StatusCode)
		}
		gotKeys := map[string]bool{}
		for _, d := range got.Instances {
			k := detKey(d)
			if gotKeys[k] {
				t.Errorf("sub %s: duplicate %s", sub.ID, k)
			}
			gotKeys[k] = true
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Errorf("sub %s: missing %s", sub.ID, k)
			}
		}
		for k := range gotKeys {
			if !wantKeys[k] {
				t.Errorf("sub %s: spurious %s", sub.ID, k)
			}
		}
		total += len(wantKeys)
	}
	if total == 0 {
		t.Fatal("degenerate test: no batch instances")
	}

	// Global top-k over the wire: sorted by flow, k respected.
	var top struct {
		Count     int                 `json:"count"`
		Instances []*stream.Detection `json:"instances"`
	}
	getJSON(t, client, front.URL+"/topk?k=7", &top)
	if top.Count == 0 || top.Count > 7 {
		t.Fatalf("global topk count = %d, want 1..7", top.Count)
	}
	for i := 1; i < len(top.Instances); i++ {
		if top.Instances[i-1].Flow < top.Instances[i].Flow {
			t.Fatalf("global topk unsorted at %d", i)
		}
	}

	// Coordinator /metrics exposes per-shard lag.
	lag := scrape(t, client, front.URL+"/metrics")["flowmotif_cluster_member_watermark_lag"]
	if lag == nil || len(labelValues(lag, "member")) == 0 {
		t.Errorf("coordinator /metrics missing per-shard watermark lag: %+v", lag)
	}
}

// memberKills tracks each member daemon's kill switch for kill tests.
var memberKills = map[*cluster.HTTPMember]func(){}

func killMember(t *testing.T, m *cluster.HTTPMember) {
	t.Helper()
	kill, ok := memberKills[m]
	if !ok {
		t.Fatalf("no daemon tracked for member %s", m.ID())
	}
	kill()
}

func keysOf(m map[string]interface{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMemberEndpointsAndHardening covers the member daemon's handoff
// endpoints and the request hardening: body-size bound (413), malformed
// JSON (400), and the merged-topk member query.
func TestMemberEndpointsAndHardening(t *testing.T) {
	srv, err := New(Config{Member: true, MaxBodyBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Malformed JSON -> 400 with a JSON error body.
	resp, err := client.Post(ts.URL+"/ingest", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
		t.Fatal("malformed ingest: error body not JSON")
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", resp.StatusCode)
	}

	// Oversized body -> 413.
	big := `{"events":[` + strings.Repeat(`{"from":0,"to":1,"t":1,"f":1},`, 200) + `{"from":0,"to":1,"t":1,"f":1}]}`
	resp, err = client.Post(ts.URL+"/ingest", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", resp.StatusCode)
	}

	// Install two subscriptions over the handoff endpoint.
	for _, spec := range []cluster.SubSpec{
		{ID: "a", Motif: "0-1-2", Delta: 50},
		{ID: "b", Motif: "0-1", Delta: 20},
	} {
		resp, body := postJSON(t, client, ts.URL+"/cluster/add-sub", cluster.Handoff{Sub: spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("add-sub %s: %d: %s", spec.ID, resp.StatusCode, body)
		}
	}
	// Duplicate add -> 400.
	if resp, _ := postJSON(t, client, ts.URL+"/cluster/add-sub", cluster.Handoff{Sub: cluster.SubSpec{ID: "a", Motif: "0-1"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate add-sub: status %d, want 400", resp.StatusCode)
	}

	// Ingest a chain that both subscriptions see, then flush.
	events := []map[string]interface{}{
		{"from": 0, "to": 1, "t": 10, "f": 5},
		{"from": 1, "to": 2, "t": 12, "f": 3},
	}
	if resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{"events": events}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, client, ts.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("flush failed")
	}

	// Merged member topk (?all=1) sees both subscriptions.
	var top struct {
		Count     int                 `json:"count"`
		Started   bool                `json:"started"`
		Instances []*stream.Detection `json:"instances"`
	}
	getJSON(t, client, ts.URL+"/topk?all=1", &top)
	subsSeen := map[string]bool{}
	for _, d := range top.Instances {
		subsSeen[d.Sub] = true
	}
	if !top.Started || !subsSeen["a"] || !subsSeen["b"] {
		t.Fatalf("merged topk missing subs: started=%v seen=%v", top.Started, subsSeen)
	}

	// Remove one subscription; its handoff carries the top detections.
	var h cluster.Handoff
	resp, body := postJSON(t, client, ts.URL+"/cluster/remove-sub", map[string]string{"id": "a"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove-sub: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Sub.ID != "a" || !h.Primed || len(h.Top) == 0 {
		t.Fatalf("handoff incomplete: %+v", h.Sub)
	}
	// Unknown id -> 404.
	if resp, _ := postJSON(t, client, ts.URL+"/cluster/remove-sub", map[string]string{"id": "nope"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove unknown sub: status %d, want 404", resp.StatusCode)
	}
	// The removed subscription is gone from queries.
	if resp := getJSON(t, client, ts.URL+"/instances?sub=a", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query removed sub: status %d, want 404", resp.StatusCode)
	}

	// /metrics includes per-endpoint request counters and engine gauges.
	fams := scrape(t, client, ts.URL+"/metrics")
	if req := fams["flowmotif_http_request_seconds"]; req == nil || !labelValues(req, "endpoint")["ingest"] {
		t.Errorf("/metrics missing request counters for ingest: %+v", req)
	}
	if fams["flowmotif_engine_watermark"] == nil {
		t.Error("/metrics missing engine gauges")
	}

	// A non-member server refuses to start with no subscriptions and does
	// not expose the cluster endpoints.
	if _, err := New(Config{}); err == nil {
		t.Fatal("non-member server with no subscriptions accepted")
	}
	plain, err := New(Config{Subs: []stream.Subscription{{ID: "x", Motif: motif.MustPath(0, 1), Delta: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	if resp, _ := postJSON(t, pts.Client(), pts.URL+"/cluster/add-sub", cluster.Handoff{Sub: cluster.SubSpec{ID: "y", Motif: "0-1"}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cluster endpoint on plain server: status %d, want 404", resp.StatusCode)
	}
}
