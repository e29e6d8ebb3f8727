package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
)

// frontDoorCall sends one request and returns its status and body.
func frontDoorCall(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestFrontDoorContract pins "clients cannot tell one engine from a
// cluster": one stream with the same two subscriptions runs through a
// daemon and through a one-member coordinator, and both answer the same
// request table with the same status, the same response fields and the
// same detections in the same order. The one deliberate difference is
// seq: a daemon honours a client's resend tag, a coordinator assigns seq
// from its log and refuses one.
func TestFrontDoorContract(t *testing.T) {
	evs, err := gen.Bitcoin(gen.BitcoinConfig{Nodes: 150, SeedTxns: 500, Duration: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	subs := []stream.Subscription{
		{ID: "a", Motif: motif.MustPath(0, 1, 2), Delta: 400},
		{ID: "b", Motif: motif.MustPath(0, 1, 2, 0), Delta: 600, Phi: 2},
	}
	const maxBody = 1 << 16
	srv, err := New(Config{Subs: subs, Recent: 1 << 16, MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(srv.Handler())
	defer daemon.Close()
	// The member applies the daemon's batches, one per call: a coalesced
	// backlog would finalize in other rounds, and a round fixes both a
	// detection's DetectedAt (the newest-first order) and the order its
	// flow is summed in.
	const batch = 100
	m0, _ := memberDaemon(t, "m0")
	c, err := cluster.New(cluster.Config{Members: []cluster.Member{m0}, Subs: subs, RetryDelay: time.Millisecond, CoalesceEvents: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	coord := httptest.NewServer(NewCoordinator(c, maxBody).Handler())
	defer coord.Close()
	fronts := [2]*httptest.Server{daemon, coord}

	for i := 0; i < len(evs); i += batch {
		body, err := json.Marshal(map[string]interface{}{"events": wireEvents(evs[i:min(i+batch, len(evs))])})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fronts {
			if code, body := frontDoorCall(t, f, http.MethodPost, "/ingest", string(body)); code != http.StatusOK {
				t.Fatalf("ingest: %d: %s", code, body)
			}
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, f := range fronts {
		if code, body := frontDoorCall(t, f, http.MethodPost, "/flush", ""); code != http.StatusOK {
			t.Fatalf("flush: %d: %s", code, body)
		}
	}

	big := `{"events":[` + strings.Repeat(`{"from":0,"to":1,"t":1,"f":1},`, maxBody/16) + `]}`
	for _, tc := range []struct {
		method, path, body string
		want, count        int // count < 0: not checked
	}{
		{"GET", "/topk", "", http.StatusOK, 10},
		{"GET", "/topk?sub=a", "", http.StatusOK, 10},
		{"GET", "/topk?k=0", "", http.StatusOK, -1},
		{"GET", "/topk?all=1", "", http.StatusOK, 10},
		{"GET", "/instances", "", http.StatusOK, 50},
		{"GET", "/instances?sub=b&limit=3", "", http.StatusOK, 3},
		{"GET", "/instances?limit=x", "", http.StatusBadRequest, -1},
		{"GET", "/instances?sub=nope", "", http.StatusNotFound, -1},
		{"GET", "/topk?sub=nope", "", http.StatusNotFound, -1},
		{"POST", "/topk", "", http.StatusMethodNotAllowed, -1},
		{"GET", "/ingest", "", http.StatusMethodNotAllowed, -1},
		{"POST", "/ingest", big, http.StatusRequestEntityTooLarge, -1},
		{"GET", "/subs", "", http.StatusOK, -1},
	} {
		var bodies [2][]byte
		answered := tc.want == http.StatusOK
		for i, f := range fronts {
			code, body := frontDoorCall(t, f, tc.method, tc.path, tc.body)
			if code != tc.want {
				t.Errorf("%s %s on %s: status %d, want %d: %s", tc.method, tc.path, [2]string{"daemon", "coordinator"}[i], code, tc.want, body)
				answered = false
			}
			bodies[i] = body
		}
		if !answered {
			continue
		}
		if tc.path == "/subs" {
			checkSubsContract(t, bodies)
			continue
		}
		var answers [2]map[string]json.RawMessage
		var rows [2][]*stream.Detection
		for i, body := range bodies {
			if err := json.Unmarshal(body, &answers[i]); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(answers[i]["instances"], &rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		var keys [2][]string
		for i, a := range answers {
			for k := range a {
				keys[i] = append(keys[i], k)
			}
			sort.Strings(keys[i])
		}
		if want := []string{"count", "degraded", "instances", "started", "sub", "watermark"}; !reflect.DeepEqual(keys[0], want) || !reflect.DeepEqual(keys[1], want) {
			t.Errorf("%s: fields daemon %v, coordinator %v, want %v", tc.path, keys[0], keys[1], want)
		}
		for _, k := range []string{"sub", "count", "watermark", "started", "degraded"} {
			if string(answers[0][k]) != string(answers[1][k]) {
				t.Errorf("%s: %s daemon %s, coordinator %s", tc.path, k, answers[0][k], answers[1][k])
			}
		}
		if tc.count >= 0 && len(rows[0]) != tc.count {
			t.Errorf("%s: daemon served %d detections, want %d", tc.path, len(rows[0]), tc.count)
		}
		if len(rows[0]) != len(rows[1]) {
			t.Errorf("%s: daemon served %d detections, coordinator %d", tc.path, len(rows[0]), len(rows[1]))
			continue
		}
		for j := range rows[0] {
			d, e := rows[0][j], rows[1][j]
			if d.Sub != e.Sub || d.Flow != e.Flow || d.Start != e.Start {
				t.Errorf("%s row %d: daemon (%s, %g, %d), coordinator (%s, %g, %d)", tc.path, j, d.Sub, d.Flow, d.Start, e.Sub, e.Flow, e.Start)
				break
			}
		}
	}

	// A client seq: the daemon's idempotent-resend tag, the coordinator's
	// to assign.
	late, err := json.Marshal(map[string]interface{}{
		"seq":    1,
		"events": []wireEvent{{From: 0, To: 1, T: evs[len(evs)-1].T + 1_000_000, F: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{http.StatusOK, http.StatusBadRequest} {
		if code, body := frontDoorCall(t, fronts[i], http.MethodPost, "/ingest", string(late)); code != want {
			t.Errorf("ingest with seq on %s: status %d, want %d: %s", [2]string{"daemon", "coordinator"}[i], code, want, body)
		}
	}
}

// checkSubsContract compares the two roles' /subs rows: the same
// subscriptions sorted by id with parseable paths, and a member only on
// the coordinator's.
func checkSubsContract(t *testing.T, bodies [2][]byte) {
	t.Helper()
	type row struct {
		ID     string  `json:"id"`
		Motif  string  `json:"motif"`
		Path   string  `json:"path"`
		Delta  int64   `json:"delta"`
		Phi    float64 `json:"phi"`
		Member string  `json:"member"`
	}
	var lists [2]struct {
		Subs []row `json:"subs"`
	}
	for i, body := range bodies {
		if err := json.Unmarshal(body, &lists[i]); err != nil {
			t.Fatal(err)
		}
	}
	d, c := lists[0].Subs, lists[1].Subs
	if len(d) != 2 || len(c) != 2 {
		t.Fatalf("/subs: daemon %d rows, coordinator %d, want 2 each", len(d), len(c))
	}
	for j := range d {
		if d[j].Member != "" || c[j].Member != "m0" {
			t.Errorf("/subs row %d: member daemon %q, coordinator %q, want \"\" and \"m0\"", j, d[j].Member, c[j].Member)
		}
		c[j].Member = ""
		if d[j] != c[j] {
			t.Errorf("/subs row %d: daemon %+v, coordinator %+v", j, d[j], c[j])
		}
		if _, err := motif.Parse(d[j].Path); err != nil {
			t.Errorf("/subs row %d: path %q does not parse: %v", j, d[j].Path, err)
		}
	}
	if d[0].ID != "a" || d[1].ID != "b" {
		t.Errorf("/subs not sorted by id: %s, %s", d[0].ID, d[1].ID)
	}
}
