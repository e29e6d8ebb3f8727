package server

// End-to-end coverage for DESIGN.md §14: per-subscription cost
// attribution surfaced over /debug/top (member and coordinator), the
// cluster-wide merge of same-shape cost series, the SLO burn-rate
// watchdog, and the metrics-catalog drift check against DESIGN.md.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// topResponse mirrors the /debug/top JSON for decoding in tests.
type topResponse struct {
	By                string     `json:"by"`
	AttributedSeconds float64    `json:"attributedSeconds"`
	Rounds            int64      `json:"rounds"`
	Members           int        `json:"members"`
	Subs              []topSub   `json:"subs"`
	Groups            []topGroup `json:"groups"`
	Shards            []topShard `json:"shards"`
}

// skewedEvents generates the shared workload: a bitcoin-style interaction
// stream with enough triangles and chains to exercise every plan group.
func skewedEvents(t *testing.T) []temporal.Event {
	t.Helper()
	evs, err := gen.Bitcoin(gen.BitcoinConfig{Nodes: 120, SeedTxns: 300, Duration: 15000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	return evs
}

// skewedSubs builds three plan groups with deliberate cost skew: four
// heavy chain subscriptions over a wide window (chains are the prolific
// shape on this workload, and the wide match set strictly contains the
// narrow ones), one light chain subscription over a tiny window, and two
// triangle subscriptions in between. Placement co-locates by shape, so on
// a two-member cluster the chains land on one shard and the triangles on
// the other.
func skewedSubs() []stream.Subscription {
	return []stream.Subscription{
		{ID: "heavy0", Motif: motif.MustPath(0, 1, 2), Delta: 2400, Phi: 0},
		{ID: "heavy1", Motif: motif.MustPath(0, 1, 2), Delta: 2400, Phi: 0},
		{ID: "heavy2", Motif: motif.MustPath(0, 1, 2), Delta: 2400, Phi: 0},
		{ID: "heavy3", Motif: motif.MustPath(0, 1, 2), Delta: 2400, Phi: 0},
		{ID: "light", Motif: motif.MustPath(0, 1, 2), Delta: 60, Phi: 1},
		{ID: "triA", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1},
		{ID: "triB", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1},
	}
}

func eventBatch(evs []temporal.Event) []map[string]interface{} {
	batch := make([]map[string]interface{}, len(evs))
	for i, e := range evs {
		batch[i] = map[string]interface{}{"from": e.From, "to": e.To, "t": e.T, "f": e.F}
	}
	return batch
}

// TestDebugTopSingleServer checks the member-side /debug/top: ranked
// subscriptions and plan groups from the engine's cost account, parameter
// validation, and the 404 when attribution is off.
func TestDebugTopSingleServer(t *testing.T) {
	srv, err := New(Config{Subs: skewedSubs(), Recent: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	evs := skewedEvents(t)
	if resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{"events": eventBatch(evs)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, client, ts.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}

	// Seconds are wall-clock measurements: assert that they are present,
	// ordered and sum to the total, never which row they favour.
	var top topResponse
	getJSON(t, client, ts.URL+"/debug/top?by=cost", &top)
	if top.Rounds == 0 || top.AttributedSeconds <= 0 || top.Members != 1 || len(top.Shards) != 1 {
		t.Fatalf("no metered rounds in /debug/top: %+v", top)
	}
	if len(top.Subs) != len(skewedSubs()) {
		t.Fatalf("got %d sub rows, want %d", len(top.Subs), len(skewedSubs()))
	}
	var secSum float64
	for i, s := range top.Subs {
		if i > 0 && s.Seconds > top.Subs[i-1].Seconds {
			t.Fatalf("subs not sorted by seconds desc: %+v", top.Subs)
		}
		secSum += s.Seconds
	}
	if rel := (secSum - top.AttributedSeconds) / top.AttributedSeconds; rel > 1e-6 || rel < -1e-6 {
		t.Fatalf("sub seconds sum %v != attributed %v", secSum, top.AttributedSeconds)
	}
	if len(top.Groups) != 3 {
		t.Fatalf("got %d plan groups, want 3: %+v", len(top.Groups), top.Groups)
	}
	// The skew itself is asserted on deterministic work counts.
	var byEmits topResponse
	getJSON(t, client, ts.URL+"/debug/top?by=emits", &byEmits)
	assertSkew(t, byEmits)
	// ?limit clips every section.
	var clipped topResponse
	getJSON(t, client, ts.URL+"/debug/top?limit=2", &clipped)
	if len(clipped.Subs) != 2 || len(clipped.Groups) != 2 {
		t.Fatalf("limit=2 not applied: %d subs, %d groups", len(clipped.Subs), len(clipped.Groups))
	}
	// Bad ranking key: 400.
	if resp, err := client.Get(ts.URL + "/debug/top?by=vibes"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("by=vibes: %d, want 400", resp.StatusCode)
	}

	// Observability (and with it attribution) off: /debug/top answers 404,
	// not zeros.
	off, err := New(Config{Subs: skewedSubs()[:1], DisableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if resp, err := tsOff.Client().Get(tsOff.URL + "/debug/top"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled attribution /debug/top: %d, want 404", resp.StatusCode)
	}
}

// assertSkew checks a ?by=emits answer over skewedSubs against the skew
// they are built with, on counts a loaded machine cannot reorder: rows
// sorted by emits, a heavy* subscription first, and the four-subscription
// δ=2400 chain group first, behind no group on emits or on structural
// matches visited (a per-shape count: the light chain group ties it).
func assertSkew(t *testing.T, top topResponse) {
	t.Helper()
	for i := 1; i < len(top.Subs); i++ {
		if top.Subs[i].Emits > top.Subs[i-1].Emits {
			t.Fatalf("subs not sorted by emits desc: %+v", top.Subs)
		}
	}
	if !strings.HasPrefix(top.Subs[0].ID, "heavy") || top.Subs[0].Emits == 0 {
		t.Fatalf("top sub by emits is %+v, want a heavy* subscription", top.Subs[0])
	}
	g := top.Groups[0]
	if g.Delta != 2400 || g.Subs != 4 || g.Emits != 4*top.Subs[0].Emits {
		t.Fatalf("top group by emits should be the 4-sub δ=2400 chain group: %+v", g)
	}
	for _, o := range top.Groups[1:] {
		if g.MatchesVisited == 0 || o.MatchesVisited > g.MatchesVisited || o.Emits > g.Emits {
			t.Fatalf("group %+v out-ranks the heavy group %+v on a work count", o, g)
		}
	}
}

// TestClusterDebugTop drives a two-member cluster (HTTP member daemons)
// with three skewed plan groups and checks the coordinator's stitched
// /debug/top: ranking consistent with the skew, sub rows tagged with
// their shard, groups merged, shards section present, and shares re-based
// over cluster seconds.
func TestClusterDebugTop(t *testing.T) {
	m0, _ := memberDaemon(t, "m0")
	m1, _ := memberDaemon(t, "m1")
	c, err := cluster.New(cluster.Config{
		Members:    []cluster.Member{m0, m1},
		Subs:       skewedSubs(),
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

	// Both shards must own subscriptions, or the "cluster-wide" claim is
	// untested (placement co-locates by shape: triangles on one member,
	// chains on the other).
	owners := map[string]bool{}
	for _, owner := range c.Placement() {
		owners[owner] = true
	}
	if len(owners) != 2 {
		t.Fatalf("placement uses %d members, want 2: %v", len(owners), c.Placement())
	}

	evs := skewedEvents(t)
	if resp, body := postJSON(t, client, front.URL+"/ingest", map[string]interface{}{"events": eventBatch(evs)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, client, front.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}

	var top topResponse
	getJSON(t, client, front.URL+"/debug/top?by=cost&limit=100", &top)
	if top.Members != 2 || top.AttributedSeconds <= 0 {
		t.Fatalf("coordinator top header: %+v", top)
	}
	if len(top.Subs) != len(skewedSubs()) {
		t.Fatalf("got %d sub rows, want %d: %+v", len(top.Subs), len(skewedSubs()), top.Subs)
	}
	var shareSum, secSum float64
	for _, s := range top.Subs {
		if s.Member == "" {
			t.Fatalf("sub row %q missing its member: %+v", s.ID, s)
		}
		shareSum += s.Share
		secSum += s.Seconds
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Fatalf("cluster shares sum to %v, want ~1", shareSum)
	}
	if rel := (secSum - top.AttributedSeconds) / top.AttributedSeconds; rel > 1e-6 || rel < -1e-6 {
		t.Fatalf("sub seconds sum %v != cluster attributed %v", secSum, top.AttributedSeconds)
	}
	if len(top.Groups) != 3 {
		t.Fatalf("got %d merged plan groups, want 3: %+v", len(top.Groups), top.Groups)
	}
	if len(top.Shards) != 2 {
		t.Fatalf("got %d shard rows, want 2: %+v", len(top.Shards), top.Shards)
	}
	if top.Shards[0].CostSeconds < top.Shards[1].CostSeconds || top.Shards[1].CostSeconds <= 0 {
		t.Fatalf("shards not ranked by cost, or one without any: %+v", top.Shards)
	}
	// The skew itself is asserted on deterministic work counts: the chain
	// shard, which owns the heavy group, out-emits the triangle shard.
	var byEmits topResponse
	getJSON(t, client, front.URL+"/debug/top?by=emits&limit=100", &byEmits)
	assertSkew(t, byEmits)
	if byEmits.Shards[0].Detections <= byEmits.Shards[1].Detections || byEmits.Shards[0].ID != byEmits.Subs[0].Member {
		t.Fatalf("shards not ranked by detections, heavy shard first: %+v", byEmits.Shards)
	}
	// by=lag ranks shards by detection-lag p99.
	var byLag topResponse
	getJSON(t, client, front.URL+"/debug/top?by=lag", &byLag)
	if len(byLag.Shards) != 2 {
		t.Fatalf("by=lag shard rows: %+v", byLag.Shards)
	}
}

// TestClusterSubCostMergeSameShape is the label-collision check: the same
// subscription shape (and even the same subscription ID) metered on two
// different engines must merge into ONE summed series per (sub, shape)
// under obs.Accum — the coordinator's exposition path — with distinct
// subscriptions untouched. Placement co-locates same-shape subscriptions
// on one member, so this drives the merge directly over two engines.
func TestClusterSubCostMergeSameShape(t *testing.T) {
	evs := skewedEvents(t)
	mk := func(ids ...string) *stream.Engine {
		subs := make([]stream.Subscription, len(ids))
		for i, id := range ids {
			subs[i] = stream.Subscription{ID: id, Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1}
		}
		eng, err := stream.NewEngine(stream.Config{Subs: subs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		return eng
	}
	e1 := mk("shared", "only1")
	e2 := mk("shared", "only2")

	subCost := func(reg *obs.Registry, sub string) float64 {
		for _, m := range reg.Snapshot() {
			if m.Name != "flowmotif_sub_cost_seconds_total" {
				continue
			}
			for _, l := range m.Labels {
				if l.Key == "sub" && l.Value == sub {
					return m.Value
				}
			}
		}
		return 0
	}
	w1, w2 := subCost(e1.Obs(), "shared"), subCost(e2.Obs(), "shared")
	if w1 <= 0 || w2 <= 0 {
		t.Fatalf("per-engine shared-sub cost: %v, %v — want both positive", w1, w2)
	}

	acc := obs.NewAccum()
	acc.Add(e1.Obs().Snapshot(), obs.L("member", "a"))
	acc.Add(e2.Obs().Snapshot(), obs.L("member", "b"))
	series := map[string]float64{}
	for _, m := range acc.Snapshots() {
		if m.Name != "flowmotif_sub_cost_seconds_total" {
			continue
		}
		var sub string
		for _, l := range m.Labels {
			if l.Key == "member" {
				t.Fatalf("cost counter gained a member label (would split the cluster-wide sum): %+v", m.Labels)
			}
			if l.Key == "sub" {
				sub = l.Value
			}
		}
		if _, dup := series[sub]; dup {
			t.Fatalf("duplicate merged series for sub %q", sub)
		}
		series[sub] = m.Value
	}
	if len(series) != 3 {
		t.Fatalf("merged series = %v, want exactly {shared, only1, only2}", series)
	}
	if got, want := series["shared"], w1+w2; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("merged shared-sub cost %v, want sum of engines %v", got, want)
	}
}

// TestSLOWatchdogTrips drives the watchdog's evaluate loop with synthetic
// sample times over a real degraded engine: every detection lags past a
// 1ns SLO, so both burn windows run hot, /healthz degrades with reasons,
// and the burn-rate gauges export.
func TestSLOWatchdogTrips(t *testing.T) {
	srv, err := New(Config{
		Subs: []stream.Subscription{{ID: "tri", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1}},
		SLO: SLOConfig{
			LagSLO:     time.Nanosecond, // every emit is over SLO
			FastWindow: time.Minute,
			SlowWindow: 10 * time.Minute,
			Interval:   time.Hour, // the ticker stays out of the way; the test drives evaluate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.slo == nil {
		t.Fatal("watchdog not armed")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	t0 := time.Now()
	srv.slo.evaluate(srv.slo.sample(t0)) // healthy baseline

	var health map[string]interface{}
	getJSON(t, client, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz before degradation: %v", health)
	}

	var batch []map[string]interface{}
	for i := 0; i < 10; i++ {
		base := int64(i * 50)
		batch = append(batch,
			map[string]interface{}{"from": 0, "to": 1, "t": base, "f": 5},
			map[string]interface{}{"from": 1, "to": 2, "t": base + 1, "f": 5},
			map[string]interface{}{"from": 2, "to": 0, "t": base + 2, "f": 5},
		)
	}
	if resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{"events": batch}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, client, ts.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}

	// Past both windows: the baseline anchors the deltas, every detection
	// since is bad, both windows burn far over the threshold.
	srv.slo.evaluate(srv.slo.sample(t0.Add(11 * time.Minute)))
	reasons := srv.slo.Reasons()
	if len(reasons) == 0 || !strings.Contains(reasons[0], "detection lag") {
		t.Fatalf("watchdog did not trip on lag: reasons = %v", reasons)
	}
	getJSON(t, client, ts.URL+"/healthz", &health)
	if health["status"] != "degraded" {
		t.Fatalf("healthz after trip: %v", health)
	}
	if _, ok := health["degradedReasons"]; !ok {
		t.Fatalf("healthz missing degradedReasons: %v", health)
	}

	gauges := map[string]float64{}
	for _, m := range srv.Obs().Snapshot() {
		if m.Name != "flowmotif_slo_burn_rate" {
			continue
		}
		var slo, window string
		for _, l := range m.Labels {
			switch l.Key {
			case "slo":
				slo = l.Value
			case "window":
				window = l.Value
			}
		}
		gauges[slo+"/"+window] = m.Value
	}
	if len(gauges) != 4 {
		t.Fatalf("burn-rate gauges = %v, want 4 series (lag/errors × fast/slow)", gauges)
	}
	if gauges["lag/fast"] <= 2 || gauges["lag/slow"] <= 2 {
		t.Fatalf("lag burn rates not over threshold: %v", gauges)
	}

	// Recovery: windows that moved past the bad interval stop burning and
	// the degradation clears.
	srv.slo.evaluate(srv.slo.sample(t0.Add(12 * time.Minute)))
	srv.slo.evaluate(srv.slo.sample(t0.Add(30 * time.Minute)))
	if reasons := srv.slo.Reasons(); len(reasons) != 0 {
		t.Fatalf("watchdog did not recover: reasons = %v", reasons)
	}
	getJSON(t, client, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz after recovery: %v", health)
	}
}

// catalogMetricNames parses DESIGN.md's catalog tables: backticked tokens
// in the first cell of any table row that look like metric names (lower
// snake case with at least one underscore). Names are normalized with the
// flowmotif_ prefix unless they carry the go_ runtime prefix.
func catalogMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	tok := regexp.MustCompile("`([a-z0-9_]+)`")
	names := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range tok.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			if !strings.Contains(name, "_") {
				continue
			}
			if !strings.HasPrefix(name, "go_") && !strings.HasPrefix(name, "flowmotif_") {
				name = "flowmotif_" + name
			}
			names[name] = true
		}
	}
	if len(names) < 20 {
		t.Fatalf("catalog parse found only %d names — table format drifted?", len(names))
	}
	return names
}

// TestMetricsCatalogDrift diffs DESIGN.md's metric catalog against the
// union of a live member and coordinator exposition, both directions: a
// new series must be documented, and a documented series must exist.
func TestMetricsCatalogDrift(t *testing.T) {
	catalog := catalogMetricNames(t)

	// Member daemon with every subsystem armed: durable store, SLO
	// watchdog, cost attribution, tracing.
	srv, err := New(Config{
		Subs:    skewedSubs()[:6],
		DataDir: t.TempDir(),
		SLO:     SLOConfig{LagSLO: 2 * time.Second, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	evs := skewedEvents(t)
	if resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{"events": eventBatch(evs)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, client, ts.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, client, ts.URL+"/snapshot", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d: %s", resp.StatusCode, body)
	}

	// Coordinator over one local member, for the cluster-side families.
	lm, err := cluster.NewLocalMember("m0", cluster.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Members: []cluster.Member{lm},
		Subs:    skewedSubs()[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs := NewCoordinator(c, 0)
	front := httptest.NewServer(cs.Handler())
	defer front.Close()
	if resp, body := postJSON(t, front.Client(), front.URL+"/ingest", map[string]interface{}{"events": eventBatch(evs)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator ingest: %d: %s", resp.StatusCode, body)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	exposed := map[string]bool{}
	for _, url := range []string{
		ts.URL + "/metrics?format=prometheus",
		front.URL + "/metrics?format=prometheus",
	} {
		for name := range scrape(t, client, url) {
			exposed[name] = true
		}
	}

	var missing, undocumented []string
	for name := range exposed {
		if !catalog[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range catalog {
		if !exposed[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(undocumented)
	if len(undocumented) > 0 {
		t.Errorf("exposed series missing from the DESIGN.md catalog (document them): %v", undocumented)
	}
	if len(missing) > 0 {
		t.Errorf("cataloged series absent from live expositions (stale docs or lost wiring): %v", missing)
	}
}
