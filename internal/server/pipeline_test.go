package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// TestWriteJSONEncodeFailure is the regression test for the truncated-200
// hazard: writeJSON used to commit the success header before encoding, so
// a marshal failure mid-stream left the client a truncated body under a
// 200. Now the payload is encoded to a buffer first and an encode failure
// yields a clean 500 with a JSON error body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]interface{}{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d for an unencodable payload, want 500", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body not valid JSON: %v (%q)", err, rec.Body.String())
	}
	if !strings.Contains(e.Error, "encoding failed") {
		t.Fatalf("error body = %q, want an encoding-failure message", e.Error)
	}

	// The happy path is unchanged: status and body intact.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]string{"ok": "yes"})
	if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), `"ok":"yes"`) {
		t.Fatalf("happy path: %d %q", rec.Code, rec.Body.String())
	}
}

// TestIngestSeqDedupOverHTTP pins the member daemon's half of idempotent
// replication: a seq-tagged /ingest resend answers with the recorded ack
// (dup=true) instead of a 409, and the engine applies nothing twice.
func TestIngestSeqDedupOverHTTP(t *testing.T) {
	srv, err := New(Config{Member: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	if resp, body := postJSON(t, client, ts.URL+"/cluster/add-sub",
		cluster.Handoff{Sub: cluster.SubSpec{ID: "s", Motif: "0-1", Delta: 5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("add-sub: %d: %s", resp.StatusCode, body)
	}
	payload := map[string]interface{}{
		"seq":    1,
		"events": []map[string]interface{}{{"from": 0, "to": 1, "t": 10, "f": 2}},
	}
	var first, again struct {
		Ingested  int   `json:"ingested"`
		Watermark int64 `json:"watermark"`
		Seq       int64 `json:"seq"`
		Dup       bool  `json:"dup"`
	}
	resp, body := postJSON(t, client, ts.URL+"/ingest", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Dup || first.Seq != 1 || first.Ingested != 1 {
		t.Fatalf("first ack = %+v", first)
	}
	// The resend (same seq) would be a 409 behind-frontier without dedup.
	resp, body = postJSON(t, client, ts.URL+"/ingest", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resend: %d: %s (want the recorded ack, not a rejection)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Dup || again.Watermark != first.Watermark || again.Ingested != 1 {
		t.Fatalf("resend ack = %+v, want dup of %+v", again, first)
	}
	var st struct {
		Engine struct {
			EventsIngested int64 `json:"eventsIngested"`
		} `json:"engine"`
	}
	getJSON(t, client, ts.URL+"/stats", &st)
	if st.Engine.EventsIngested != 1 {
		t.Fatalf("engine ingested %d events after a resend, want 1", st.Engine.EventsIngested)
	}
	// An untagged batch behind the frontier still 409s (dedup is scoped
	// to tagged replication traffic).
	resp, _ = postJSON(t, client, ts.URL+"/ingest", map[string]interface{}{
		"events": []map[string]interface{}{{"from": 0, "to": 1, "t": 3, "f": 1}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("untagged behind-frontier ingest: %d, want 409", resp.StatusCode)
	}
}

// TestCoordinatorDegradedResponses pins the no-data / degraded states the
// coordinator's query API distinguishes: a fresh cluster answers 200 with
// started=false (not an indistinguishable empty success), a healthy
// started cluster answers started=true, and a cluster whose every shard
// is gone answers 503 instead of an empty 200.
func TestCoordinatorDegradedResponses(t *testing.T) {
	m0, err := cluster.NewLocalMember("m0", cluster.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Members:    []cluster.Member{m0},
		Subs:       []stream.Subscription{{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}},
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

	// Fresh cluster: 200, zero instances, started=false — "no data yet",
	// not "empty stream at watermark 0".
	var q struct {
		Count     int   `json:"count"`
		Watermark int64 `json:"watermark"`
		Started   bool  `json:"started"`
		Degraded  bool  `json:"degraded"`
	}
	for _, path := range []string{"/instances", "/topk?k=5"} {
		resp := getJSON(t, client, front.URL+path, &q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on a fresh cluster: %d", path, resp.StatusCode)
		}
		if q.Started || q.Degraded || q.Count != 0 || q.Watermark != 0 {
			t.Fatalf("%s on a fresh cluster = %+v, want started=false degraded=false", path, q)
		}
	}

	if resp, body := postJSON(t, client, front.URL+"/ingest", map[string]interface{}{
		"events": []map[string]interface{}{{"from": 0, "to": 1, "t": 0, "f": 1}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	} else {
		var ack struct {
			Pipelined bool  `json:"pipelined"`
			Seq       int64 `json:"seq"`
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		if !ack.Pipelined || ack.Seq != 1 {
			t.Fatalf("coordinator ingest ack = %s, want pipelined seq 1", body)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	// Watermark 0 again (the single event is at t=0) — but started=true
	// now distinguishes it from the fresh-cluster answer above.
	resp := getJSON(t, client, front.URL+"/instances", &q)
	if resp.StatusCode != http.StatusOK || !q.Started || q.Watermark != 0 {
		t.Fatalf("started stream at watermark 0: %d %+v", resp.StatusCode, q)
	}

	// Kill the only member. An idle down member is only discovered when a
	// delivery hits it, so queue one more batch; the drain then reaps it,
	// the subscription is unplaced, and the gather has nobody to ask —
	// 503, not an empty 200.
	m0.SetDown(true)
	if resp, body := postJSON(t, client, front.URL+"/ingest", map[string]interface{}{
		"events": []map[string]interface{}{{"from": 0, "to": 1, "t": 50, "f": 1}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pipelined ingest with the member down should still ack: %d: %s", resp.StatusCode, body)
	}
	if err := c.Drain(); !errors.Is(err, cluster.ErrNoMembers) {
		t.Fatalf("drain with the only member down: %v, want ErrNoMembers", err)
	}
	var e struct {
		Error string `json:"error"`
	}
	resp = getJSON(t, client, front.URL+"/instances", &e)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Error == "" {
		t.Fatalf("gather with no members: %d %q, want 503 with a JSON error", resp.StatusCode, e.Error)
	}
	var hz struct {
		Status   string `json:"status"`
		Unplaced int    `json:"unplaced"`
	}
	getJSON(t, client, front.URL+"/healthz", &hz)
	if hz.Status != "degraded" || hz.Unplaced != 1 {
		t.Fatalf("healthz = %+v, want degraded with 1 unplaced", hz)
	}
	// /stats exposes the replication-pipeline gauges.
	var stats struct {
		Cluster map[string]interface{} `json:"cluster"`
	}
	getJSON(t, client, front.URL+"/stats", &stats)
	for _, k := range []string{"headSeq", "logEntries", "backpressureWaits", "degraded"} {
		if _, ok := stats.Cluster[k]; !ok {
			t.Errorf("/stats cluster section missing %s: %v", k, keysOf(stats.Cluster))
		}
	}
}

// stuckStatsMember is a member whose Stats hangs until released, as a
// remote member's GET /stats does when the member is wedged. When set,
// arrived is called as each probe starts waiting.
type stuckStatsMember struct {
	*cluster.LocalMember
	arrived func()
	release chan struct{}
}

func (m *stuckStatsMember) Stats() (cluster.MemberStats, error) {
	if m.arrived != nil {
		m.arrived()
	}
	<-m.release
	return m.LocalMember.Stats()
}

// TestCoordinatorHealthzSkipsMembers: a coordinator's /healthz answers
// from its own record, so a member whose stats probe hangs does not hold
// the health probe up.
func TestCoordinatorHealthzSkipsMembers(t *testing.T) {
	lm, err := cluster.NewLocalMember("m0", cluster.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := &stuckStatsMember{LocalMember: lm, release: make(chan struct{})}
	c, err := cluster.New(cluster.Config{
		Members:    []cluster.Member{m},
		Subs:       []stream.Subscription{{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}},
		RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	front := httptest.NewServer(NewCoordinator(c, 0).Handler())
	defer front.Close()
	defer close(m.release) // before front.Close, which waits for handlers
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatalf("/healthz with a member whose stats hang: %v", err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status  string `json:"status"`
		Role    string `json:"role"`
		Members int    `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Role != "coordinator" || hz.Members != 1 {
		t.Fatalf("/healthz = %d %+v, want 200 ok from a one-member coordinator", resp.StatusCode, hz)
	}
}

// TestCoordinatorStatsFanOut: a coordinator probes its members' stats at
// once, so /stats and /metrics wait for the slowest member, not for the
// sum. Each member's probe is released only once both probes are in
// flight; probing one member after the other never answers.
func TestCoordinatorStatsFanOut(t *testing.T) {
	for _, path := range []string{"/stats", "/metrics"} {
		t.Run(strings.TrimPrefix(path, "/"), func(t *testing.T) {
			release := make(chan struct{})
			free := sync.OnceFunc(func() { close(release) })
			var inFlight atomic.Int32
			members := make([]cluster.Member, 2)
			for i := range members {
				lm, err := cluster.NewLocalMember(fmt.Sprintf("m%d", i), cluster.LocalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				members[i] = &stuckStatsMember{LocalMember: lm, release: release, arrived: func() {
					if inFlight.Add(1) == 2 {
						free()
					}
				}}
			}
			c, err := cluster.New(cluster.Config{
				Members:    members,
				Subs:       []stream.Subscription{{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}},
				RetryDelay: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			front := httptest.NewServer(NewCoordinator(c, 0).Handler())
			defer front.Close()
			defer free() // before front.Close, which waits for handlers
			client := &http.Client{Timeout: 5 * time.Second}
			resp, err := client.Get(front.URL + path)
			if err != nil {
				t.Fatalf("%s with probes released only in pairs: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
			}
		})
	}
}

// TestCoordinatorDegradedRoutedQuery: a routed query returns its owner's
// error unchanged, so a down owner answers 503 and an unknown
// subscription 404.
func TestCoordinatorDegradedRoutedQuery(t *testing.T) {
	m0, err := cluster.NewLocalMember("m0", cluster.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Members:    []cluster.Member{m0},
		Subs:       []stream.Subscription{{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}},
		RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	front := httptest.NewServer(NewCoordinator(c, 0).Handler())
	defer front.Close()
	m0.SetDown(true)
	for path, want := range map[string]int{
		"/topk?sub=s&k=1":     http.StatusServiceUnavailable,
		"/instances?sub=s":    http.StatusServiceUnavailable,
		"/topk?sub=nope&k=1":  http.StatusNotFound,
		"/instances?sub=nope": http.StatusNotFound,
	} {
		resp := getJSON(t, front.Client(), front.URL+path, nil)
		if resp.StatusCode != want {
			t.Errorf("%s with the owner down = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestServerClusterPipelineStress interleaves pipelined coordinator
// ingest with member snapshots, flushes, and membership churn on a mixed
// transport set (a durable HTTP member daemon + local members), under
// -race in CI. It pins the serving layer's lock ordering (snapshot
// capture vs replicated /ingest vs handoffs) rather than instance-set
// equivalence (which TestClusterPipelineStress covers).
func TestServerClusterPipelineStress(t *testing.T) {
	durable, err := New(Config{Member: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.StartWire("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer durable.StopWire()
	ts := httptest.NewServer(durable.Handler())
	defer ts.Close()
	httpMember := cluster.NewHTTPMember("h0", ts.URL, ts.Client())
	defer httpMember.CloseWire()

	l0, err := cluster.NewLocalMember("l0", cluster.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Members: []cluster.Member{httpMember, l0},
		Subs: []stream.Subscription{
			{ID: "edge", Motif: motif.MustPath(0, 1), Delta: 5},
			{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 5},
		},
		RetryDelay: time.Millisecond,
		MaxPending: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Snapshot churn on the durable member while replicated /ingest and
	// handoffs hit it — the snapMu/ingestMu ordering under real load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := durable.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Flush churn through the coordinator.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.Flush(); err != nil && !errors.Is(err, cluster.ErrNoMembers) {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Membership churn on the local side (the HTTP member stays).
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := "l0"
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := "l" + string(rune('0'+i%8))
			if id == cur {
				continue
			}
			nm, err := cluster.NewLocalMember(id, cluster.LocalOptions{})
			if err != nil {
				t.Errorf("new member: %v", err)
				return
			}
			if err := c.AddMember(nm); err != nil {
				t.Errorf("add %s: %v", id, err)
				return
			}
			if err := c.RemoveMember(cur); err != nil {
				t.Errorf("remove %s: %v", cur, err)
				return
			}
			cur = id
			time.Sleep(2 * time.Millisecond)
		}
	}()

	rng := rand.New(rand.NewSource(7))
	base := int64(100)
	for i := 0; i < 120; i++ {
		batch := []temporal.Event{
			{From: 0, To: 1, T: base, F: 1 + rng.Float64()},
			{From: 1, To: 2, T: base + 2, F: 1 + rng.Float64()},
		}
		if _, err := c.Ingest(batch); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		base += 100
		if i%4 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	wg.Wait()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Events != 240 {
		t.Fatalf("coordinator Events = %d, want 240", st.Events)
	}
	for _, m := range st.Members {
		// Churned-in members received the pre-join stream via handoff
		// splice (not counted as ingested), so the invariant is watermark
		// equality, not event counts.
		if !m.Started || m.Watermark != st.Watermark {
			t.Fatalf("member %s at watermark %d (started=%v), cluster at %d",
				m.ID, m.Watermark, m.Started, st.Watermark)
		}
	}
	// The never-churned durable HTTP member saw every replicated batch:
	// its engine and WAL hold the full stream.
	if seq := durable.shard.Store().Seq(); seq != 240 {
		t.Fatalf("durable member WAL holds %d events, want 240", seq)
	}
	t.Logf("server stress: %d moves, %d downs", st.Moves, st.Downs)
}
