package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
)

// scrape fetches url and parses it as Prometheus text exposition, failing
// the test on any format violation (the parser validates TYPE uniqueness,
// label syntax, cumulative buckets, +Inf terminals and _count agreement).
func scrape(t *testing.T, client *http.Client, url string) map[string]*obs.ExpoFamily {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET %s: content type %q, want text/plain", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(string(body))
	if err != nil {
		t.Fatalf("GET %s: invalid exposition: %v\n%s", url, err, body)
	}
	return fams
}

// histCount sums the family's _count samples.
func histCount(f *obs.ExpoFamily) float64 {
	var n float64
	for _, s := range f.Series {
		if strings.HasSuffix(s.Name, "_count") {
			n += s.Value
		}
	}
	return n
}

// labelValues collects the distinct values of one label across a family.
func labelValues(f *obs.ExpoFamily, key string) map[string]bool {
	out := map[string]bool{}
	for _, s := range f.Series {
		if v, ok := s.Labels[key]; ok {
			out[v] = true
		}
	}
	return out
}

func requireHistogram(t *testing.T, fams map[string]*obs.ExpoFamily, name string) *obs.ExpoFamily {
	t.Helper()
	f := fams[name]
	if f == nil {
		t.Fatalf("family %s missing from exposition", name)
	}
	if f.Type != "histogram" {
		t.Fatalf("family %s: type %q, want histogram", name, f.Type)
	}
	return f
}

// TestPrometheusScrapeEndToEnd drives a live member daemon and a cluster
// coordinator over HTTP, then scrapes /metrics?format=prometheus on both
// and validates the expositions with the format-checking parser: the
// member serves its pipeline histograms (finalize stages, detection lag,
// per-endpoint request latency), the coordinator serves those same
// families bucket-merged across members plus its replication-lag
// histogram and member-labeled gauges.
func TestPrometheusScrapeEndToEnd(t *testing.T) {
	m, mts := memberDaemon(t, "m0")
	c, err := cluster.New(cluster.Config{
		Members: []cluster.Member{m},
		Subs: []stream.Subscription{
			{ID: "tri", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1},
		},
		RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs := NewCoordinator(c, 0)
	front := httptest.NewServer(cs.Handler())
	defer front.Close()
	client := front.Client()

	// Triangles 0→1→2→0 every 50 ticks: each closes a motif instance, so
	// detection-lag and emit-stage histograms are guaranteed samples.
	var batch []map[string]interface{}
	for i := 0; i < 30; i++ {
		base := int64(i * 50)
		batch = append(batch,
			map[string]interface{}{"from": 0, "to": 1, "t": base, "f": 5},
			map[string]interface{}{"from": 1, "to": 2, "t": base + 1, "f": 5},
			map[string]interface{}{"from": 2, "to": 0, "t": base + 2, "f": 5},
		)
	}
	if resp, body := postJSON(t, client, front.URL+"/ingest", map[string]interface{}{"events": batch}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, client, front.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}

	// Member exposition: stage + lag histograms with real samples, request
	// histograms labeled by endpoint and code class, engine gauges.
	mf := scrape(t, mts.Client(), mts.URL+"/metrics?format=prometheus")
	lag := requireHistogram(t, mf, "flowmotif_detection_lag_seconds")
	if histCount(lag) == 0 {
		t.Fatal("member detection-lag histogram has no observations")
	}
	stages := requireHistogram(t, mf, "flowmotif_finalize_stage_seconds")
	got := labelValues(stages, "stage")
	for _, want := range []string{"snapshot", "match", "fanout", "emit"} {
		if !got[want] {
			t.Fatalf("member finalize-stage histogram: stage %q missing (have %v)", want, got)
		}
	}
	req := requireHistogram(t, mf, "flowmotif_http_request_seconds")
	// Replicated batches arrive over the wire listener; the coordinator's
	// flush is the member's HTTP traffic.
	if eps := labelValues(req, "endpoint"); !eps["flush"] {
		t.Fatalf("member request histogram: endpoint \"flush\" missing (have %v)", eps)
	}
	if codes := labelValues(req, "code"); !codes["2xx"] {
		t.Fatalf("member request histogram: code class \"2xx\" missing (have %v)", codes)
	}
	if mf["flowmotif_engine_watermark"] == nil {
		t.Fatal("member exposition: flowmotif_engine_watermark missing")
	}

	// Coordinator exposition: member histograms merged in, replication
	// pipeline histograms, member-labeled gauges, cluster gauges.
	cf := scrape(t, client, front.URL+"/metrics?format=prometheus")
	clag := requireHistogram(t, cf, "flowmotif_detection_lag_seconds")
	if histCount(clag) == 0 {
		t.Fatal("coordinator detection-lag histogram empty: member metrics not merged")
	}
	requireHistogram(t, cf, "flowmotif_finalize_stage_seconds")
	requireHistogram(t, cf, "flowmotif_http_request_seconds")
	repl := requireHistogram(t, cf, "flowmotif_replication_lag_seconds")
	if histCount(repl) == 0 {
		t.Fatal("coordinator replication-lag histogram has no observations")
	}
	lagGauge := cf["flowmotif_cluster_member_watermark_lag"]
	if lagGauge == nil {
		t.Fatal("coordinator exposition: flowmotif_cluster_member_watermark_lag missing")
	}
	if members := labelValues(lagGauge, "member"); !members["m0"] {
		t.Fatalf("member gauge not labeled by member id (have %v)", members)
	}

	// There is one exposition: without ?format= both roles answer the same
	// families in the same format (scrape checks the content type).
	for url, with := range map[string]map[string]*obs.ExpoFamily{mts.URL: mf, front.URL: cf} {
		without := scrape(t, client, url+"/metrics")
		for name := range with {
			if without[name] == nil {
				t.Errorf("GET %s/metrics: family %s served only with ?format=prometheus", url, name)
			}
		}
	}
	// A WAL-free member still serves request class counts, and no store
	// gauges.
	if !labelValues(req, "code")["2xx"] || !labelValues(req, "endpoint")["flush"] {
		t.Fatal("member /metrics: flush 2xx request series missing")
	}
	if mf["flowmotif_store_wal_seq"] != nil {
		t.Fatal("member /metrics: store gauges on a member without a data dir")
	}

	// Observability off: /metrics still answers, with the gauges it reads
	// at scrape time and no registry series.
	off, err := New(Config{Member: true, DisableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	ots := httptest.NewServer(off.Handler())
	defer ots.Close()
	of := scrape(t, ots.Client(), ots.URL+"/metrics")
	if of["flowmotif_engine_watermark"] == nil || of["flowmotif_http_request_seconds"] != nil {
		t.Fatalf("DisableObs /metrics: want scrape-time gauges only, have %d families", len(of))
	}
}

// TestPrometheusHistogramMergeAcrossMembers checks the coordinator's
// bucket-merge semantics directly: two in-process members' detection-lag
// counts sum in the merged exposition.
func TestPrometheusHistogramMergeAcrossMembers(t *testing.T) {
	var members []cluster.Member
	var locals []*cluster.LocalMember
	for _, id := range []string{"a", "b"} {
		lm, err := cluster.NewLocalMember(id, cluster.LocalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, lm)
		locals = append(locals, lm)
	}
	c, err := cluster.New(cluster.Config{
		Members: members,
		Subs: []stream.Subscription{
			{ID: "tri", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1},
			{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 300, Phi: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs := NewCoordinator(c, 0)
	front := httptest.NewServer(cs.Handler())
	defer front.Close()

	var batch []map[string]interface{}
	for i := 0; i < 20; i++ {
		base := int64(i * 50)
		batch = append(batch,
			map[string]interface{}{"from": 0, "to": 1, "t": base, "f": 5},
			map[string]interface{}{"from": 1, "to": 2, "t": base + 1, "f": 5},
			map[string]interface{}{"from": 2, "to": 0, "t": base + 2, "f": 5},
		)
	}
	if resp, body := postJSON(t, front.Client(), front.URL+"/ingest", map[string]interface{}{"events": batch}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	var want float64
	for _, lm := range locals {
		for _, m := range lm.Engine().Obs().Snapshot() {
			if m.Name == "flowmotif_detection_lag_seconds" && m.Hist != nil {
				want += float64(m.Hist.Count)
			}
		}
	}
	if want == 0 {
		t.Fatal("no detection-lag observations on either member")
	}
	cf := scrape(t, front.Client(), front.URL+"/metrics?format=prometheus")
	merged := requireHistogram(t, cf, "flowmotif_detection_lag_seconds")
	if got := histCount(merged); got != want {
		t.Fatalf("merged detection-lag count %v, want sum of members %v", got, want)
	}
}
