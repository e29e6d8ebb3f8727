package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
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
	"flowmotif/internal/wire"
)

// wireTestSubs is the subscription set both transports serve in the
// oracle tests.
func wireTestSubs() []stream.Subscription {
	return []stream.Subscription{
		{ID: "tri", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 1},
		{ID: "chain", Motif: motif.MustPath(0, 1, 2), Delta: 300, Phi: 0},
	}
}

// startWireServer builds a server, arms its binary listener, and wraps
// its HTTP handler in an httptest server for the query side.
func startWireServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.StartWire("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, addr
}

// TestWireVsJSONIngestOracle is the entrance-compatibility oracle: the
// same seq-tagged event stream through the JSON API, through the binary
// wire protocol and through the in-process entrance (Member.Ingest on a
// cluster.LocalMember) must produce identical per-batch acks (ingested,
// watermark, detections, seq, dup), identical final detection sets, and
// identical seq-dedup behavior — including a resend after a dropped ack
// arriving over a fresh binary connection.
func TestWireVsJSONIngestOracle(t *testing.T) {
	evs, err := gen.Bitcoin(gen.BitcoinConfig{Nodes: 80, SeedTxns: 200, Duration: 12000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })

	_, jsonTS, _ := startWireServer(t, Config{Subs: wireTestSubs()})
	_, wireTS, wireAddr := startWireServer(t, Config{Subs: wireTestSubs()})

	lm, err := cluster.NewLocalMember("local", cluster.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range wireTestSubs() {
		if err := lm.AddSubscription(cluster.Handoff{Sub: cluster.SpecOf(sub)}); err != nil {
			t.Fatal(err)
		}
	}
	var local cluster.Member = lm // the interface a coordinator drives

	cli, err := wire.Dial(wireAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Feed the identical batch sequence through all three entrances.
	// Batches are shuffled internally so the engine's, the store's and the
	// wire encoder's sort paths run.
	rng := rand.New(rand.NewSource(4))
	var seq int64
	var lastWireAck wire.Ack
	var lastBatch []temporal.Event
	for i := 0; i < len(evs); {
		n := 1 + rng.Intn(96)
		if i+n > len(evs) {
			n = len(evs) - i
		}
		batch := append([]temporal.Event(nil), evs[i:i+n]...)
		rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		seq++

		events := make([]map[string]interface{}, len(batch))
		for j, e := range batch {
			events[j] = map[string]interface{}{"from": e.From, "to": e.To, "t": e.T, "f": e.F}
		}
		resp, body := postJSON(t, jsonTS.Client(), jsonTS.URL+"/ingest",
			map[string]interface{}{"events": events, "seq": seq})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("json ingest seq %d: %d: %s", seq, resp.StatusCode, body)
		}
		var jsonAck ingestResponse
		if err := json.Unmarshal(body, &jsonAck); err != nil {
			t.Fatal(err)
		}

		wireAck, err := cli.Ingest(seq, "", batch)
		if err != nil {
			t.Fatalf("wire ingest seq %d: %v", seq, err)
		}
		if int(wireAck.Ingested) != jsonAck.Ingested || wireAck.Watermark != jsonAck.Watermark ||
			wireAck.Detections != jsonAck.Detections || wireAck.Seq != jsonAck.Seq || wireAck.Dup != jsonAck.Dup {
			t.Fatalf("seq %d acks diverge: wire %+v, json %+v", seq, wireAck, jsonAck)
		}
		localAck, err := local.Ingest(cluster.Batch{Seq: seq, Events: batch})
		if err != nil {
			t.Fatalf("in-process ingest seq %d: %v", seq, err)
		}
		if localAck.Ingested != jsonAck.Ingested || localAck.Watermark != jsonAck.Watermark ||
			localAck.Detections != jsonAck.Detections || localAck.Seq != jsonAck.Seq || localAck.Dup != jsonAck.Dup {
			t.Fatalf("seq %d acks diverge: in-process %+v, json %+v", seq, localAck, jsonAck)
		}
		lastWireAck = wireAck
		lastBatch = batch
		i += n
	}

	// Resend after a dropped ack: a fresh connection (the reconnect a
	// transport failure forces) resends the last seq-tagged batch and must
	// get the recorded ack back, dup-flagged, with nothing re-applied.
	cli2, err := wire.Dial(wireAddr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	dup, err := cli2.Ingest(seq, "", lastBatch)
	if err != nil {
		t.Fatalf("resend over fresh connection: %v", err)
	}
	if !dup.Dup || dup.Ingested != lastWireAck.Ingested || dup.Watermark != lastWireAck.Watermark ||
		dup.Detections != lastWireAck.Detections || dup.Seq != lastWireAck.Seq {
		t.Fatalf("resend ack = %+v, want dup of %+v", dup, lastWireAck)
	}
	if ldup, err := local.Ingest(cluster.Batch{Seq: seq, Events: lastBatch}); err != nil || !ldup.Dup ||
		int64(ldup.Ingested) != dup.Ingested || ldup.Watermark != dup.Watermark ||
		ldup.Detections != dup.Detections || ldup.Seq != dup.Seq {
		t.Fatalf("in-process resend ack = %+v (%v), want the wire one %+v", ldup, err, dup)
	}

	// An untagged behind-frontier batch is rejected with the typed 409
	// equivalent — and the connection survives the rejection.
	_, err = cli.Ingest(0, "", []temporal.Event{{From: 0, To: 1, T: 1, F: 1}})
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBehindFrontier {
		t.Fatalf("behind-frontier over wire: %v, want RemoteError code %d", err, wire.CodeBehindFrontier)
	}
	if _, err := cli.Ingest(seq, "", lastBatch); err != nil {
		t.Fatalf("connection unusable after a semantic rejection: %v", err)
	}

	// Flush all three and compare the final detection sets per subscription.
	for _, ts := range []*httptest.Server{jsonTS, wireTS} {
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("flush: %d: %s", resp.StatusCode, body)
		}
	}
	if _, err := local.Flush(); err != nil {
		t.Fatal(err)
	}
	names := []string{"json", "wire", "in-process"}
	for _, sub := range wireTestSubs() {
		keys := make([]map[string]bool, 3)
		for si, ts := range []*httptest.Server{jsonTS, wireTS} {
			var got struct {
				Instances []*stream.Detection `json:"instances"`
			}
			resp := getJSON(t, ts.Client(), ts.URL+"/instances?limit=0&sub="+sub.ID, &got)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("instances %s: %d", sub.ID, resp.StatusCode)
			}
			keys[si] = map[string]bool{}
			for _, d := range got.Instances {
				keys[si][detKey(d)] = true
			}
		}
		res, err := local.Instances(sub.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys[2] = map[string]bool{}
		for _, d := range res.Detections {
			keys[2][detKey(d)] = true
		}
		if len(keys[0]) == 0 {
			t.Fatalf("sub %s: oracle vacuous, no detections", sub.ID)
		}
		for si := 1; si < len(keys); si++ {
			if len(keys[0]) != len(keys[si]) {
				t.Fatalf("sub %s: json served %d instances, %s served %d", sub.ID, len(keys[0]), names[si], len(keys[si]))
			}
			for k := range keys[0] {
				if !keys[si][k] {
					t.Fatalf("sub %s: instance %s served over json but not over %s", sub.ID, k, names[si])
				}
			}
		}
	}
}

// statusError is a non-200 HTTP answer, so the JSON entrance can report a
// refusal through the same error-returning shape as the other two.
type statusError int

func (e statusError) Error() string { return fmt.Sprintf("HTTP status %d", int(e)) }

// TestShardRefusalsEveryEntrance drives the two refusals a shard issues on
// its own — WAL fail-stop and unknown subscription — through each of its
// entrances and expects the one taxonomy in that entrance's form.
//
// Fail-stop (the scenario cluster.TestWALFailurePoisonsMember pins for the
// direct call): break the WAL under a durable shard, send a seq-tagged
// batch — the engine applies it, the append fails — and expect
// ErrMemberDown / a 5xx / wire.CodeInternal; resend the same seq and
// expect the same refusal with EventsIngested unchanged (no double apply).
func TestShardRefusalsEveryEntrance(t *testing.T) {
	sub := stream.Subscription{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}
	durableServer := func(t *testing.T) (*Server, *httptest.Server, string) {
		return startWireServer(t, Config{Subs: []stream.Subscription{sub}, DataDir: t.TempDir()})
	}
	type entrance struct {
		shard   *cluster.Shard
		ingest  func(seq int64, evs []temporal.Event) error
		refused func(error) bool
	}
	entrances := map[string]func(t *testing.T) entrance{
		"direct": func(t *testing.T) entrance {
			lm, err := cluster.NewLocalMember("d", cluster.LocalOptions{DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if err := lm.AddSubscription(cluster.Handoff{Sub: cluster.SpecOf(sub)}); err != nil {
				t.Fatal(err)
			}
			return entrance{
				shard: lm.Shard,
				ingest: func(seq int64, evs []temporal.Event) error {
					_, err := lm.Ingest(cluster.Batch{Seq: seq, Events: evs})
					return err
				},
				refused: func(err error) bool { return errors.Is(err, cluster.ErrMemberDown) },
			}
		},
		"json": func(t *testing.T) entrance {
			srv, ts, _ := durableServer(t)
			return entrance{
				shard: srv.shard,
				ingest: func(seq int64, evs []temporal.Event) error {
					resp, _ := postJSON(t, ts.Client(), ts.URL+"/ingest",
						map[string]interface{}{"events": wireEvents(evs), "seq": seq})
					if resp.StatusCode != http.StatusOK {
						return statusError(resp.StatusCode)
					}
					return nil
				},
				refused: func(err error) bool {
					var se statusError
					return errors.As(err, &se) && se >= 500
				},
			}
		},
		"wire": func(t *testing.T) entrance {
			srv, _, addr := durableServer(t)
			cli, err := wire.Dial(addr, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })
			return entrance{
				shard: srv.shard,
				// One connection throughout: a fail-stop refusal keeps it open.
				ingest: func(seq int64, evs []temporal.Event) error {
					_, err := cli.Ingest(seq, "", evs)
					return err
				},
				refused: func(err error) bool {
					var re *wire.RemoteError
					return errors.As(err, &re) && re.Code == wire.CodeInternal
				},
			}
		},
	}
	for name, build := range entrances {
		t.Run("failstop/"+name, func(t *testing.T) {
			e := build(t)
			if err := e.ingest(1, []temporal.Event{{From: 0, To: 1, T: 10, F: 1}}); err != nil {
				t.Fatal(err)
			}
			// Break the WAL out from under the shard: the next append fails
			// after the engine has already applied.
			if err := e.shard.Store().Close(); err != nil {
				t.Fatal(err)
			}
			bad := []temporal.Event{{From: 0, To: 1, T: 20, F: 1}}
			for _, attempt := range []string{"first send", "resend"} {
				if err := e.ingest(2, bad); !e.refused(err) {
					t.Fatalf("%s with a broken WAL: %v, want the fail-stop refusal", attempt, err)
				}
				if got := e.shard.Engine().Stats().EventsIngested; got != 2 {
					t.Fatalf("after the %s the engine has ingested %d events, want 2 (applied once, never again)", attempt, got)
				}
			}
		})
	}

	// Unknown subscription: ErrUnknownSub from the shard, 404 over HTTP, and
	// ErrUnknownSub again once HTTPMember has mapped the 404 back.
	_, ts, _ := startWireServer(t, Config{Subs: []stream.Subscription{sub}})
	lm, err := cluster.NewLocalMember("d", cluster.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]cluster.Member{"direct": lm, "http member": cluster.NewHTTPMember("h", ts.URL, ts.Client())} {
		if _, err := m.TopK("nope", 1); !errors.Is(err, cluster.ErrUnknownSub) {
			t.Errorf("%s: TopK of an unknown subscription: %v, want ErrUnknownSub", name, err)
		}
		if _, err := m.Instances("nope", 1); !errors.Is(err, cluster.ErrUnknownSub) {
			t.Errorf("%s: Instances of an unknown subscription: %v, want ErrUnknownSub", name, err)
		}
	}
	if resp := getJSON(t, ts.Client(), ts.URL+"/topk?sub=nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /topk of an unknown subscription: %d, want 404", resp.StatusCode)
	}
}

// TestWireFrameTooLarge pins the 413 mirror: a frame header declaring a
// payload over wire.DefaultMaxFrameBytes is rejected with the typed
// too-large error frame before any payload is read (none is ever sent),
// and the connection is closed (framing cannot resync).
func TestWireFrameTooLarge(t *testing.T) {
	_, _, addr := startWireServer(t, Config{Subs: wireTestSubs()})

	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	header := binary.LittleEndian.AppendUint32([]byte{'F', 'M', wire.Version, wire.FrameBatch}, wire.DefaultMaxFrameBytes+1)
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn)
	f, err := dec.Next()
	if err != nil || f.Type != wire.FrameError {
		t.Fatalf("oversized header: frame %+v, err %v, want an error frame", f, err)
	}
	if re, err := dec.RemoteErr(); err != nil || re.Code != wire.CodeFrameTooLarge {
		t.Fatalf("oversized header: %v, %v, want RemoteError code %d", re, err, wire.CodeFrameTooLarge)
	}
	// The server closed the connection after the framing-level rejection.
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("read after rejection: %v, want EOF", err)
	}
	// A small frame on a fresh connection still works.
	cli, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	small := []temporal.Event{{From: 0, To: 1, T: 1, F: 1}, {From: 1, To: 2, T: 2, F: 1}}
	if _, err := cli.Ingest(1, "", small); err != nil {
		t.Fatalf("small frame after reconnect: %v", err)
	}
}

// TestWireSymbolicFrameRefused pins that node ids on the wire are the
// client's: a v1 batch frame with flag bit 0 set and label definitions
// (the bytes an older encoder's symbolic mode produced for a→b at t=1,
// f=1) is answered with a bad-frame error, applies nothing, and closes
// the connection, as any malformed frame does.
func TestWireSymbolicFrameRefused(t *testing.T) {
	srv, _, addr := startWireServer(t, Config{Subs: wireTestSubs()})
	req4xx := func() float64 {
		for _, m := range srv.ro.reg.Snapshot() {
			if m.Name == "flowmotif_wire_requests_total" && len(m.Labels) == 1 && m.Labels[0].Value == "4xx" {
				return m.Value
			}
		}
		t.Fatal("registry missing flowmotif_wire_requests_total{code=\"4xx\"}")
		return 0
	}
	before4xx, beforeIngested := req4xx(), srv.Engine().Stats().EventsIngested

	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	symbolic := []byte{
		0x46, 0x4d, 0x01, 0x01, 0x0f, 0x00, 0x00, 0x00,
		0x01, 0x01, 0x00, 0x02, 0x01, 0x61, 0x01, 0x62,
		0x01, 0x00, 0x01, 0x02, 0xbf, 0xe0, 0x03,
		0x19, 0x55, 0x69, 0x5d,
	}
	if _, err := conn.Write(symbolic); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(conn)
	f, err := dec.Next()
	if err != nil || f.Type != wire.FrameError {
		t.Fatalf("symbolic frame: frame %+v, err %v, want an error frame", f, err)
	}
	if re, err := dec.RemoteErr(); err != nil || re.Code != wire.CodeBadFrame {
		t.Fatalf("symbolic frame: %v, %v, want RemoteError code %d", re, err, wire.CodeBadFrame)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("read after rejection: %v, want EOF", err)
	}
	if got := req4xx(); got != before4xx+1 {
		t.Errorf("wire_requests_total{code=\"4xx\"} = %v, want %v", got, before4xx+1)
	}
	if got := srv.Engine().Stats().EventsIngested; got != beforeIngested {
		t.Errorf("engine ingested %d events, want %d (the refused frame applies nothing)", got, beforeIngested)
	}
	// A numeric batch on a fresh connection is still acked.
	cli, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Ingest(1, "", []temporal.Event{{From: 0, To: 1, T: 1, F: 1}}); err != nil {
		t.Fatalf("numeric frame after reconnect: %v", err)
	}
}

// TestWireMetricsAndHealthz pins the listener's observability contract:
// /healthz advertises the wire port (the auto-upgrade discovery signal),
// the connection gauge tracks opens, and the request/event counters move
// with traffic — including the 4xx class on a semantic rejection.
func TestWireMetricsAndHealthz(t *testing.T) {
	srv, ts, addr := startWireServer(t, Config{Subs: wireTestSubs()})

	var hz struct {
		WirePort int `json:"wirePort"`
	}
	getJSON(t, ts.Client(), ts.URL+"/healthz", &hz)
	if hz.WirePort != srv.WirePort() || hz.WirePort == 0 {
		t.Fatalf("healthz wirePort = %d, server says %d", hz.WirePort, srv.WirePort())
	}

	cli, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Ingest(0, "", []temporal.Event{
		{From: 0, To: 1, T: 100, F: 2}, {From: 1, To: 2, T: 160, F: 3},
	}); err != nil {
		t.Fatal(err)
	}
	// One behind-frontier rejection for the 4xx series.
	if _, err := cli.Ingest(0, "", []temporal.Event{{From: 0, To: 1, T: 1, F: 1}}); err == nil {
		t.Fatal("behind-frontier batch accepted")
	}

	want := map[string]bool{
		"flowmotif_wire_connections":    false,
		"flowmotif_wire_requests_total": false,
		"flowmotif_wire_events_total":   false,
		"flowmotif_wire_decode_seconds": false,
		"flowmotif_wire_apply_seconds":  false,
		"flowmotif_wire_frame_bytes":    false,
	}
	var conns, req2xx, req4xx, events float64
	for _, m := range srv.ro.reg.Snapshot() {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
		}
		switch m.Name {
		case "flowmotif_wire_connections":
			conns = m.Value
		case "flowmotif_wire_events_total":
			events = m.Value
		case "flowmotif_wire_requests_total":
			for _, l := range m.Labels {
				if l.Key == "code" {
					switch l.Value {
					case "2xx":
						req2xx = m.Value
					case "4xx":
						req4xx = m.Value
					}
				}
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("registry missing %s", name)
		}
	}
	if conns != 1 {
		t.Errorf("wire_connections = %v with one open client, want 1", conns)
	}
	if req2xx != 1 || req4xx != 1 {
		t.Errorf("wire_requests_total 2xx=%v 4xx=%v, want 1 and 1", req2xx, req4xx)
	}
	if events != 2 {
		t.Errorf("wire_events_total = %v, want 2", events)
	}

	// The Prometheus exposition carries the series too (scrape parity
	// with the catalog drift check).
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "flowmotif_wire_requests_total") {
		t.Error("prometheus exposition missing flowmotif_wire_requests_total")
	}
}

// TestMixedTransportClusterE2E is the mixed-transport cluster oracle:
// clients speak JSON to the coordinator's front door while replication
// to every member daemon runs over the binary wire protocol (the port
// discovered from the members' /healthz advertisements) — and the served
// detection set still equals the batch search.
func TestMixedTransportClusterE2E(t *testing.T) {
	evs, err := gen.Bitcoin(gen.BitcoinConfig{Nodes: 100, SeedTxns: 240, Duration: 12000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	subs := wireTestSubs()

	var members []cluster.Member
	var daemons []*Server
	for i := 0; i < 3; i++ {
		srv, err := New(Config{Member: true, Recent: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		daemons = append(daemons, srv)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		if _, err := srv.StartWire("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		members = append(members, cluster.NewHTTPMember(fmt.Sprintf("m%d", i), ts.URL, ts.Client()))
	}
	c, err := cluster.New(cluster.Config{Members: members, Subs: subs, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs := NewCoordinator(c, 0)
	front := httptest.NewServer(cs.Handler())
	defer front.Close()
	client := front.Client()

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < len(evs); {
		n := 1 + rng.Intn(64)
		if i+n > len(evs) {
			n = len(evs) - i
		}
		batch := make([]map[string]interface{}, n)
		for j, e := range evs[i : i+n] {
			batch[j] = map[string]interface{}{"from": e.From, "to": e.To, "t": e.T, "f": e.F}
		}
		if resp, body := postJSON(t, client, front.URL+"/ingest",
			map[string]interface{}{"events": batch}); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
		}
		i += n
	}
	if resp, body := postJSON(t, client, front.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}

	// Every member really ingested over the binary transport.
	for i, srv := range daemons {
		fed := false
		for _, m := range srv.ro.reg.Snapshot() {
			if m.Name == "flowmotif_wire_events_total" && m.Value > 0 {
				fed = true
			}
		}
		if !fed {
			t.Errorf("member %d ingested nothing over the wire protocol", i)
		}
	}

	// Oracle: served instances == batch search, per subscription.
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
			Instances []*stream.Detection `json:"instances"`
		}
		resp := getJSON(t, client, front.URL+"/instances?limit=0&sub="+sub.ID, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("instances %s: %d", sub.ID, resp.StatusCode)
		}
		gotKeys := map[string]bool{}
		for _, d := range got.Instances {
			gotKeys[detKey(d)] = true
		}
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("sub %s: served %d instances, batch search found %d", sub.ID, len(gotKeys), len(wantKeys))
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Fatalf("sub %s: batch instance %s missing from mixed-transport serve", sub.ID, k)
			}
		}
	}
}

// downTransport fails every request while down is set — an unreachable
// member, as the HTTPMember's client sees it.
type downTransport struct {
	down *bool
	rt   http.RoundTripper
}

func (d downTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if *d.down {
		return nil, errors.New("connection refused (injected)")
	}
	return d.rt.RoundTrip(r)
}

// TestHTTPMemberWireDiscovery pins the one replication transport's
// discovery contract: a reachable member without a wire listener is a
// terminal (non-retried) delivery error that names the fix, while an
// unreachable member is a retryable ErrMemberDown that leaves the probe
// unresolved, so the delivery goes through once the member answers.
func TestHTTPMemberWireDiscovery(t *testing.T) {
	batch := cluster.Batch{Seq: 1, Events: []temporal.Event{{From: 0, To: 1, T: 10, F: 1}}}

	unarmed, err := New(Config{Member: true})
	if err != nil {
		t.Fatal(err)
	}
	uts := httptest.NewServer(unarmed.Handler())
	defer uts.Close()
	_, err = cluster.NewHTTPMember("u0", uts.URL, uts.Client()).Ingest(batch)
	if err == nil || errors.Is(err, cluster.ErrMemberDown) {
		t.Fatalf("unarmed member: err = %v, want a terminal (non-ErrMemberDown) error", err)
	}
	if !strings.Contains(err.Error(), "wirePort") || !strings.Contains(err.Error(), "-wire-addr") {
		t.Fatalf("unarmed member: error does not name the fix: %v", err)
	}
	if unarmed.Engine().Stats().EventsIngested != 0 {
		t.Fatal("unarmed member ingested a replicated batch")
	}

	armed, ats, _ := startWireServer(t, Config{Member: true})
	down := true
	m := cluster.NewHTTPMember("a0", ats.URL, &http.Client{Transport: downTransport{&down, http.DefaultTransport}})
	defer m.CloseWire()
	if _, err := m.Ingest(batch); !errors.Is(err, cluster.ErrMemberDown) {
		t.Fatalf("unreachable member: err = %v, want ErrMemberDown", err)
	}
	down = false
	ack, err := m.Ingest(batch)
	if err != nil {
		t.Fatalf("delivery after the member came back: %v", err)
	}
	if ack.Ingested != 1 || ack.Seq != 1 || armed.Engine().Stats().EventsIngested != 1 {
		t.Fatalf("delivery after the member came back: ack %+v", ack)
	}

	// A member that restarts its listener on another port (the -member
	// default binds a free one) costs one failed attempt, then the retry
	// rediscovers it.
	armed.StopWire()
	if _, err := armed.StartWire("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	batch = cluster.Batch{Seq: 2, Events: []temporal.Event{{From: 1, To: 2, T: 20, F: 1}}}
	if _, err := m.Ingest(batch); !errors.Is(err, cluster.ErrMemberDown) {
		t.Fatalf("delivery onto the closed listener: err = %v, want ErrMemberDown", err)
	}
	if ack, err := m.Ingest(batch); err != nil || ack.Seq != 2 {
		t.Fatalf("delivery after the listener moved: ack %+v, err %v", ack, err)
	}
}
