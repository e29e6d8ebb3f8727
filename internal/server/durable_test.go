package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

func durableEvents(t *testing.T, seed int64) []temporal.Event {
	t.Helper()
	evs, err := gen.Bitcoin(gen.BitcoinConfig{
		Nodes: 150, SeedTxns: 500, Duration: 20000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	return evs
}

// catalogConfig subscribes the full Figure-3 catalog under one (δ, φ).
func catalogConfig(dir string) Config {
	cfg := Config{
		Recent:        1 << 20,
		DataDir:       dir,
		SegmentEvents: 512, // force several segments
	}
	for _, mo := range motif.Catalog() {
		cfg.Subs = append(cfg.Subs, stream.Subscription{
			ID: mo.Name(), Motif: mo, Delta: 600, Phi: 2,
		})
	}
	return cfg
}

// ingestRange posts evs[i:j] in batches of n, failing on any non-200.
func ingestRange(t *testing.T, ts *httptest.Server, evs []temporal.Event, i, j, n int) {
	t.Helper()
	for ; i < j; i += n {
		end := i + n
		if end > j {
			end = j
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/ingest",
			map[string]interface{}{"events": wireEvents(evs[i:end])})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest [%d,%d): status %d: %s", i, end, resp.StatusCode, body)
		}
	}
}

type healthResponse struct {
	Status          string `json:"status"`
	Watermark       int64  `json:"watermark"`
	Events          int64  `json:"events"`
	Detections      int64  `json:"detections"`
	Durable         bool   `json:"durable"`
	WALEvents       int64  `json:"walEvents"`
	LastSnapshotSeq int64  `json:"lastSnapshotSeq"`
}

func health(t *testing.T, ts *httptest.Server) healthResponse {
	t.Helper()
	var h healthResponse
	if resp := getJSON(t, ts.Client(), ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	return h
}

// assertServedEqualsBatch checks, per catalog subscription, that the
// served instance set equals the batch FindInstances result on g.
func assertServedEqualsBatch(t *testing.T, ts *httptest.Server, g *temporal.Graph) {
	t.Helper()
	total := 0
	for _, mo := range motif.Catalog() {
		want, err := core.Collect(g, mo, core.Params{Delta: 600, Phi: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := map[string]bool{}
		for _, in := range want {
			wantKeys[batchKey(g, in)] = true
		}
		var got struct {
			Count     int                 `json:"count"`
			Instances []*stream.Detection `json:"instances"`
		}
		resp := getJSON(t, ts.Client(), ts.URL+"/instances?sub="+mo.Name()+"&limit=0", &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("instances %s: status %d", mo.Name(), resp.StatusCode)
		}
		if got.Count != len(wantKeys) {
			t.Fatalf("sub %s: served %d instances, batch found %d", mo.Name(), got.Count, len(wantKeys))
		}
		seen := map[string]bool{}
		for _, d := range got.Instances {
			k := detKey(d)
			if seen[k] {
				t.Fatalf("sub %s: duplicate served instance %s", mo.Name(), k)
			}
			seen[k] = true
			if !wantKeys[k] {
				t.Fatalf("sub %s: spurious instance %s", mo.Name(), k)
			}
		}
		total += len(wantKeys)
	}
	if total == 0 {
		t.Fatal("degenerate oracle: batch search found nothing for the whole catalog")
	}
}

// TestDurableKillRestartEquivalence is the PR acceptance oracle: ingest a
// generated stream into a durable server, checkpoint part-way, kill the
// process mid-stream (no graceful close), restart on the same data dir,
// finish the stream and flush. The union of emitted instances — restored
// from the snapshot, regenerated by WAL-tail replay, and detected live
// after the restart — must equal batch FindInstances over the full
// catalog, with no duplicates.
func TestDurableKillRestartEquivalence(t *testing.T) {
	evs := durableEvents(t, 3)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	srv1, err := New(catalogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	client := ts1.Client()

	quarter, half := len(evs)/4, len(evs)/2
	ingestRange(t, ts1, evs, 0, quarter, 100)
	// Checkpoint at the quarter mark: recovery must combine snapshot
	// restore with WAL-tail replay.
	if resp, body := postJSON(t, client, ts1.URL+"/snapshot", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", resp.StatusCode, body)
	}
	ingestRange(t, ts1, evs, quarter, half, 100)
	h := health(t, ts1)
	if !h.Durable || h.WALEvents != int64(half) {
		t.Fatalf("pre-kill health: %+v, want durable with %d WAL events", h, half)
	}
	if h.LastSnapshotSeq != int64(quarter) {
		t.Fatalf("pre-kill health: snapshot seq %d, want %d", h.LastSnapshotSeq, quarter)
	}
	// Kill: no srv1.Close(), so no final snapshot. Closing just the store
	// releases the directory flock for the same-process "restart"; crash
	// fidelity is intact because every acknowledged batch was already
	// flushed (the torn-WAL test below covers an unflushed tail).
	ts1.Close()
	srv1.shard.Store().Close()

	srv2, err := New(catalogConfig(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	rec := srv2.Recovery()
	if !rec.FromSnapshot || rec.SnapshotSeq != int64(quarter) || rec.Replayed != int64(half-quarter) {
		t.Fatalf("recovery = %+v, want snapshot at %d plus %d replayed", rec, quarter, half-quarter)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	ingestRange(t, ts2, evs, half, len(evs), 100)
	if resp, body := postJSON(t, ts2.Client(), ts2.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d: %s", resp.StatusCode, body)
	}
	assertServedEqualsBatch(t, ts2, g)

	h = health(t, ts2)
	if h.Events != int64(len(evs)) || h.WALEvents != int64(len(evs)) {
		t.Fatalf("post-run health: %+v, want %d events everywhere", h, len(evs))
	}
	// /flush checkpoints durable servers, so the snapshot is current.
	if h.LastSnapshotSeq != int64(len(evs)) {
		t.Fatalf("post-flush snapshot seq %d, want %d", h.LastSnapshotSeq, len(evs))
	}
}

// TestDurableTruncatedWALRecovery crashes a durable server, tears the last
// WAL record mid-write, and restarts: replay must recover every fully
// written event, and — after the client re-sends the lost tail — the
// served instance set must be identical to an uninterrupted run.
func TestDurableTruncatedWALRecovery(t *testing.T) {
	evs := durableEvents(t, 7)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	srv1, err := New(catalogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cut := len(evs) * 3 / 5
	ingestRange(t, ts1, evs, 0, cut, 100)
	ts1.Close()                // crash, no snapshot ever taken
	srv1.shard.Store().Close() // release the flock only; the torn tail comes next

	// Tear the final WAL record (13 bytes of a 32-byte record lost).
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-13); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(catalogConfig(dir))
	if err != nil {
		t.Fatalf("restart over torn WAL: %v", err)
	}
	defer srv2.Close()
	rec := srv2.Recovery()
	durable := int64(cut - 1) // the torn record is gone
	if rec.FromSnapshot || rec.Replayed != durable {
		t.Fatalf("recovery = %+v, want %d events replayed from scratch", rec, durable)
	}
	if got := srv2.Engine().Stats().EventsIngested; got != durable {
		t.Fatalf("recovered engine has %d events, want %d", got, durable)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	h := health(t, ts2)
	if h.WALEvents != durable {
		t.Fatalf("health reports %d WAL events, want %d", h.WALEvents, durable)
	}

	// The client re-sends everything the server never durably acknowledged.
	ingestRange(t, ts2, evs, int(durable), len(evs), 100)
	if resp, body := postJSON(t, ts2.Client(), ts2.URL+"/flush", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d: %s", resp.StatusCode, body)
	}
	assertServedEqualsBatch(t, ts2, g)
}

// TestDurableGracefulRestart closes the first server cleanly: the final
// snapshot must make the restart replay-free.
func TestDurableGracefulRestart(t *testing.T) {
	evs := durableEvents(t, 11)
	dir := t.TempDir()

	srv1, err := New(catalogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	ingestRange(t, ts1, evs, 0, len(evs)/2, 200)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}

	srv2, err := New(catalogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	rec := srv2.Recovery()
	if !rec.FromSnapshot || rec.Replayed != 0 {
		t.Fatalf("recovery after graceful close = %+v, want snapshot-only", rec)
	}
	if got, want := srv2.Engine().Stats().EventsIngested, int64(len(evs)/2); got != want {
		t.Fatalf("restored engine has %d events, want %d", got, want)
	}
	// The stream continues where it left off.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	ingestRange(t, ts2, evs, len(evs)/2, len(evs), 200)
	if got, want := srv2.Engine().Stats().EventsIngested, int64(len(evs)); got != want {
		t.Fatalf("final engine has %d events, want %d", got, want)
	}
}

// TestSnapshotEndpointErrors covers the admin endpoint's method and
// non-durable guards, and that non-durable health omits WAL fields.
func TestSnapshotEndpointErrors(t *testing.T) {
	srv, err := New(Config{Subs: []stream.Subscription{
		{ID: "a", Motif: motif.MustPath(0, 1, 2), Delta: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp := getJSON(t, ts.Client(), ts.URL+"/snapshot", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /snapshot: status %d, want 405", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/snapshot", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /snapshot on non-durable server: status %d, want 400", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if resp := getJSON(t, ts.Client(), ts.URL+"/healthz", &raw); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if _, ok := raw["walEvents"]; ok {
		t.Error("non-durable healthz reports walEvents")
	}
	var durable bool
	if err := json.Unmarshal(raw["durable"], &durable); err != nil || durable {
		t.Errorf("non-durable healthz durable = %v (%v)", durable, err)
	}
	if _, err := srv.Snapshot(); err == nil {
		t.Error("Snapshot() on non-durable server succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close on non-durable server: %v", err)
	}
}
