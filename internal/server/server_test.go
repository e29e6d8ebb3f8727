package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flowmotif/internal/cluster"
	"flowmotif/internal/core"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// TestOptionCount pins the number of settable options (ROADMAP: no new
// Config field, flag or env var without deleting one): the fields of the
// six config structs here, and flowmotifd's flags in ci.yml's "option
// count" step — 35 + 24 = 59. Adding a field means deleting another, or
// making the case for raising the constant in review.
func TestOptionCount(t *testing.T) {
	const want = 35 // server.Config 13, CoordinatorConfig 3, cluster.Config 6, LocalOptions 4, stream.Config 6, store.Options 3
	got := 0
	for _, cfg := range []any{Config{}, CoordinatorConfig{}, cluster.Config{}, cluster.LocalOptions{}, stream.Config{}, store.Options{}} {
		got += reflect.TypeOf(cfg).NumField()
	}
	if got != want {
		t.Fatalf("config structs declare %d fields, want %d", got, want)
	}
}

func detKey(d *stream.Detection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N%v", d.Nodes)
	for i, es := range d.Edges {
		fmt.Fprintf(&b, "|e%d", i)
		for _, p := range es {
			fmt.Fprintf(&b, ";%d:%g", p.T, p.F)
		}
	}
	return b.String()
}

func batchKey(g *temporal.Graph, in *core.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N%v", in.Nodes)
	for i, a := range in.Arcs {
		fmt.Fprintf(&b, "|e%d", i)
		for _, p := range g.Series(a)[in.Spans[i].Start:in.Spans[i].End] {
			fmt.Fprintf(&b, ";%d:%g", p.T, p.F)
		}
	}
	return b.String()
}

func postJSON(t *testing.T, client *http.Client, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, client *http.Client, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// TestServerEndToEnd drives the full daemon API over httptest: batched
// ingest, flush, then instance/topk/stat queries — and checks the served
// detections are exactly the batch-search results.
func TestServerEndToEnd(t *testing.T) {
	evs, err := gen.Bitcoin(gen.BitcoinConfig{
		Nodes: 150, SeedTxns: 500, Duration: 20000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}

	tri := motif.MustPath(0, 1, 2, 0)
	chain := motif.MustPath(0, 1, 2)
	srv, err := New(Config{
		Subs: []stream.Subscription{
			{ID: "tri", Motif: tri, Delta: 600, Phi: 2},
			{ID: "chain", Motif: chain, Delta: 400, Phi: 0},
		},
		Recent: 1 << 20,
		TopK:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Batched ingest.
	total := 0
	for i := 0; i < len(evs); i += 100 {
		end := i + 100
		if end > len(evs) {
			end = len(evs)
		}
		req := map[string]interface{}{"events": wireEvents(evs[i:end])}
		resp, body := postJSON(t, client, ts.URL+"/ingest", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
		}
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Ingested != end-i {
			t.Fatalf("ingested %d, want %d", ir.Ingested, end-i)
		}
		total += ir.Ingested
	}
	if total != len(evs) {
		t.Fatalf("ingested %d events, want %d", total, len(evs))
	}

	// Flush closes all remaining windows.
	if resp, body := postJSON(t, client, ts.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d: %s", resp.StatusCode, body)
	}

	// Served instances == batch search, per subscription.
	for _, tc := range []struct {
		sub string
		mo  *motif.Motif
		p   core.Params
	}{
		{"tri", tri, core.Params{Delta: 600, Phi: 2}},
		{"chain", chain, core.Params{Delta: 400, Phi: 0}},
	} {
		want, err := core.Collect(g, tc.mo, tc.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := map[string]bool{}
		for _, in := range want {
			wantKeys[batchKey(g, in)] = true
		}
		if len(wantKeys) == 0 {
			t.Fatalf("degenerate: no batch instances for %s", tc.sub)
		}

		var got struct {
			Count     int                 `json:"count"`
			Instances []*stream.Detection `json:"instances"`
		}
		resp := getJSON(t, client, ts.URL+"/instances?sub="+tc.sub+"&limit=0", &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("instances: status %d", resp.StatusCode)
		}
		if got.Count != len(wantKeys) {
			t.Fatalf("sub %s: served %d instances, batch found %d", tc.sub, got.Count, len(wantKeys))
		}
		for _, d := range got.Instances {
			if !wantKeys[detKey(d)] {
				t.Errorf("sub %s: served spurious instance %s", tc.sub, detKey(d))
			}
			if d.Sub != tc.sub || d.Motif != tc.mo.Name() {
				t.Errorf("mislabelled detection: %+v", d)
			}
		}

		// Top-k agrees with the k best batch flows.
		flows := make([]float64, 0, len(want))
		for _, in := range want {
			flows = append(flows, in.Flow)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(flows)))
		k := 5
		if len(flows) < k {
			k = len(flows)
		}
		var topGot struct {
			Instances []*stream.Detection `json:"instances"`
		}
		resp = getJSON(t, client, ts.URL+"/topk?sub="+tc.sub+"&k=5", &topGot)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("topk: status %d", resp.StatusCode)
		}
		if len(topGot.Instances) != k {
			t.Fatalf("topk served %d, want %d", len(topGot.Instances), k)
		}
		for i, d := range topGot.Instances {
			// Band sub-graphs accumulate prefix sums in a different order
			// than the full graph, so flows agree only up to rounding.
			if diff := math.Abs(d.Flow - flows[i]); diff > 1e-9*math.Abs(flows[i]) {
				t.Errorf("topk[%d].Flow = %g, want %g", i, d.Flow, flows[i])
			}
		}
	}

	// Stats reflect the run.
	var st struct {
		Engine stream.Stats `json:"engine"`
	}
	if resp := getJSON(t, client, ts.URL+"/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if st.Engine.EventsIngested != int64(len(evs)) {
		t.Errorf("stats: EventsIngested = %d, want %d", st.Engine.EventsIngested, len(evs))
	}
	if !st.Engine.Started || st.Engine.Detections == 0 {
		t.Errorf("stats look dead: %+v", st.Engine)
	}

	// Subscription listing.
	var subs struct {
		Subs []struct {
			ID string `json:"id"`
		} `json:"subs"`
	}
	getJSON(t, client, ts.URL+"/subs", &subs)
	if len(subs.Subs) != 2 {
		t.Fatalf("/subs returned %d entries, want 2", len(subs.Subs))
	}
}

func TestServerErrors(t *testing.T) {
	srv, err := New(Config{
		Subs: []stream.Subscription{
			{ID: "a", Motif: motif.MustPath(0, 1, 2), Delta: 10, Phi: 0},
			{ID: "b", Motif: motif.MustPath(0, 1, 2, 0), Delta: 10, Phi: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Wrong method.
	if resp := getJSON(t, client, ts.URL+"/ingest", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
	// Malformed body.
	resp, err := client.Post(ts.URL+"/ingest", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", resp.StatusCode)
	}
	// Valid ingest, then a stale batch -> 409, atomically rejected.
	if resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{
		"events": []wireEvent{{From: 0, To: 1, T: 100, F: 1}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{
		"events": []wireEvent{{From: 0, To: 1, T: 50, F: 1}},
	}); resp.StatusCode != http.StatusConflict {
		t.Errorf("stale batch: status %d, want 409", resp.StatusCode)
	}
	// Invalid flow -> 400.
	if resp, _ := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{
		"events": []wireEvent{{From: 0, To: 1, T: 200, F: -1}},
	}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative flow: status %d, want 400", resp.StatusCode)
	}
	// Unknown subscription -> 404.
	if resp := getJSON(t, client, ts.URL+"/instances?sub=nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sub: status %d, want 404", resp.StatusCode)
	}
	// Topk with no sub names every subscription, merged.
	if resp := getJSON(t, client, ts.URL+"/topk", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("merged topk: status %d, want 200", resp.StatusCode)
	}
	// Bad limit -> 400.
	if resp := getJSON(t, client, ts.URL+"/instances?limit=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", resp.StatusCode)
	}
	// Health.
	if resp := getJSON(t, client, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}
}

// wireEvent is the JSON shape of one interaction event as clients send it.
type wireEvent struct {
	From temporal.NodeID `json:"from"`
	To   temporal.NodeID `json:"to"`
	T    int64           `json:"t"`
	F    float64         `json:"f"`
}

func wireEvents(evs []temporal.Event) []wireEvent {
	out := make([]wireEvent, len(evs))
	for i, e := range evs {
		out[i] = wireEvent{From: e.From, To: e.To, T: e.T, F: e.F}
	}
	return out
}
