package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/core"
	"flowmotif/internal/gen"
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/server"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// Per-layer metrics come from two sources: benchmark-side spans around
// the public calls of the composed, traced run, and layer replay — the
// run's own batches pushed through one layer's public API alone. A
// layer is named after its package.

// layerNames is every per-layer metric with its unit. A workload that
// does not exercise a layer reports 0 for it, so that every run emits
// every name (BENCHMARK.json lists the same names; the smoke test holds
// the two together).
var layerNames = []struct{ name, unit string }{
	{"wire.encode_ns_per_event", "ns/event"},
	{"wire.decode_ns_per_event", "ns/event"},
	{"wire.bytes_per_event", "B/event"},
	{"server.wire_floor_ms_p50", "ms"},
	{"server.json_floor_ms_p50", "ms"},
	{"server.topk_idle_ms_p50", "ms"},
	{"server.recover_s", "s"},
	{"stream.ingest_ns_per_event", "ns/event"},
	{"stream.share_of_wall", "frac"},
	{"stream.emit_ns_per_detection", "ns/detection"},
	{"stream.detections", "count"},
	{"stream.plan_groups", "count"},
	{"stream.snapshot_builds", "count"},
	{"stream.snapshot_reuse", "ratio"},
	{"stream.match_runs", "count"},
	{"stream.matches_shared", "count"},
	{"temporal.windowlog_append_ns_per_event", "ns/event"},
	{"temporal.evict_ns_per_event", "ns/event"},
	{"temporal.band_build_ns_per_event", "ns/event"},
	{"temporal.graph_build_ns_per_event", "ns/event"},
	{"core.p1_ns_per_match", "ns/match"},
	{"core.p1_matches", "count"},
	{"core.p2_ns_per_instance", "ns/instance"},
	{"core.p2_instances", "count"},
	{"core.windows_processed", "count"},
	{"core.phi_pruned", "count"},
	{"core.avail_pruned", "count"},
	{"core.topk_ms_p50", "ms"},
	{"core.dp_ms_p50", "ms"},
	{"store.append_ns_per_event", "ns/event"},
	{"store.bytes_per_event", "B/event"},
	{"store.replay_ns_per_event", "ns/event"},
	{"store.query_ns_per_event", "ns/event"},
	{"cluster.pipeline_ns_per_event", "ns/event"},
	{"cluster.ack_s", "s"},
	{"cluster.drain_s", "s"},
	{"cluster.backpressure_waits", "count"},
	{"cluster.log_entries_max", "count"},
	{"cluster.topk_idle_ms_p50", "ms"},
	{"obs.stack_overhead_frac", "frac"},
	{"gen.events_per_s", "1/s"},
	{"budget.wire_s", "s"},
	{"budget.engine_s", "s"},
	{"budget.store_s", "s"},
	{"budget.wall_s", "s"},
	{"budget.residual_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"req_p99_ms", "ms"},
	{"query_late_max_ms", "ms"},
}

// startLayers turns a traced run's result over from the untraced
// phase's end-to-end metrics, which move aside to be printed, to the
// per-layer metrics: every name at 0, then what the two phases give.
func (res *result) startLayers(plainEvents int64, plain usage, tracedEvents int64, traced usage, req []float64) *metricSet {
	res.endToEnd, res.metrics = res.metrics, metricSet{}
	m := &res.metrics
	for _, l := range layerNames {
		m.set(l.name, 0, l.unit)
	}
	m.set("trace.overhead_frac", 1-div(div(float64(tracedEvents), traced.wall), div(float64(plainEvents), plain.wall)), "frac")
	m.set("req_p99_ms", percentile(req, 0.99), "ms")
	return m
}

// timingSink is the benchmark's own sink: flowmotifd's query sinks behind
// a wrapper that times every Emit.
type timingSink struct {
	inner stream.Sink
	ns    int64
	n     int64
}

func newTimingSink() *timingSink {
	return &timingSink{inner: stream.MultiSink{stream.NewMemorySink(4096), stream.NewTopKSink(50)}}
}

func (s *timingSink) Emit(d *stream.Detection) {
	t := time.Now()
	s.inner.Emit(d)
	s.ns += int64(time.Since(t))
	s.n++
}

// servingLayers runs the layer replays of a serving workload over the
// first batches of the traced run and fills the per-layer metrics.
func servingLayers(m *metricSet, tr *tracer, rig *servingRig, o options, run *servingRun, cs *clusterSampler) error {
	k := min(len(run.req), rig.spec.replayBatches)
	warm := run.first
	// batches [0, warm) set a layer's state up untimed; [warm, warm+k) are
	// the replayed ones.
	events := float64(k * batchSize)
	var each eachFunc = func(timed, untimed batchFunc) error {
		for i := 0; i < warm+k; i++ {
			f := timed
			if i < warm {
				f = untimed
			}
			if err := f(i, rig.batch(i)); err != nil {
				return err
			}
		}
		return nil
	}
	// The generator alone, without the sort and relabelling that follow it.
	var made int
	s, err := tr.timed("gen.Bitcoin", 0, 0, func() error {
		evs, err := gen.Bitcoin(gen.BitcoinConfig{
			Nodes: streamNodes, SeedTxns: len(rig.base) / 2,
			Duration: int64(float64(len(rig.base)) / rig.spec.perUnit), Seed: o.draw(bitcoinDataset),
		})
		made = len(evs)
		return err
	})
	if err != nil {
		return err
	}
	m.set("gen.events_per_s", div(float64(made), s), "1/s")

	// wire: encode the batches to frames, decode them back.
	{
		root := tr.start("replay.wire", 0, 0)
		var enc wire.Encoder
		var frames bytes.Buffer
		var encS float64
		err := each(func(i int, evs []temporal.Event) error {
			d, err := tr.timed("wire.Encoder.EncodeBatch", root, int64(i+1), func() error {
				frame, err := enc.EncodeBatch(int64(i+1), "", evs)
				frames.Write(frame) // the encoder reuses its buffer
				return err
			})
			encS += d
			return err
		}, func(int, []temporal.Event) error { return nil })
		if err != nil {
			return err
		}
		dec := wire.NewDecoder(bytes.NewReader(frames.Bytes()))
		decS, err := tr.timed("wire.Decoder", root, 0, func() error {
			for i := 0; i < k; i++ {
				if _, err := dec.Next(); err != nil {
					return err
				}
				if _, err := dec.Events(); err != nil {
					return err
				}
			}
			return nil
		})
		tr.end(root)
		if err != nil {
			return err
		}
		m.set("wire.encode_ns_per_event", div(encS*1e9, events), "ns/event")
		m.set("wire.decode_ns_per_event", div(decS*1e9, events), "ns/event")
		m.set("wire.bytes_per_event", div(float64(frames.Len()), events), "B/event")
	}

	// server floors: the same batches into a daemon with no subscription
	// and no data dir, over each transport.
	wireFloor, err := floor(tr, "server.wire_floor", each, func(d *daemon) (sender, func(), error) {
		cl, err := wire.Dial(d.wire, 0)
		if err != nil {
			return nil, nil, err
		}
		return &wireSender{cl: cl}, func() { cl.Close() }, nil
	})
	if err != nil {
		return err
	}
	jsonFloor, err := floor(tr, "server.json_floor", each, func(d *daemon) (sender, func(), error) {
		client := &http.Client{}
		return &jsonSender{client: client, base: d.ts.URL}, client.CloseIdleConnections, nil
	})
	if err != nil {
		return err
	}
	m.set("server.wire_floor_ms_p50", median(wireFloor), "ms")
	m.set("server.json_floor_ms_p50", median(jsonFloor), "ms")

	// Top-k reads with no writer beside them.
	var idle []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		if _, err := rig.topK(rig.subs[i%len(rig.subs)].ID); err != nil {
			return err
		}
		idle = append(idle, ms(time.Since(t)))
	}
	m.set("server.topk_idle_ms_p50", median(idle), "ms")

	// stream: the engine alone, same subscriptions and batches, and the
	// same once more with observability off.
	engineS, sink, st, err := engineReplay(tr, "replay.stream", rig.subs, each, false)
	if err != nil {
		return err
	}
	bareS, _, _, err := engineReplay(tr, "replay.stream_noobs", rig.subs, each, true)
	if err != nil {
		return err
	}
	m.set("stream.ingest_ns_per_event", div(engineS*1e9, events), "ns/event")
	m.set("stream.emit_ns_per_detection", div(float64(sink.ns), float64(sink.n)), "ns/detection")
	m.set("stream.detections", float64(st.Detections), "count")
	m.set("stream.plan_groups", float64(st.PlanGroups), "count")
	m.set("stream.snapshot_builds", float64(st.SnapshotBuilds), "count")
	m.set("stream.snapshot_reuse", st.SnapshotReuse, "ratio")
	m.set("stream.match_runs", float64(st.MatchRuns), "count")
	m.set("stream.matches_shared", float64(st.MatchesShared), "count")
	m.set("obs.stack_overhead_frac", div(engineS-bareS, bareS), "frac")

	// store: the WAL alone.
	storeS, err := storeReplay(m, tr, rig, each, events)
	if err != nil {
		return err
	}

	// server.recover_s: a durable daemon checkpointed halfway through the
	// batches and closed without a flush, then opened again.
	if err := recoverReplay(m, tr, rig, warm, k); err != nil {
		return err
	}

	if err := temporalAndCore(m, tr, rig, warm, k); err != nil {
		return err
	}

	if cr, ok := rig.dep.(*clusterRig); ok {
		if err := clusterLayers(m, tr, rig, cr, run, cs, each, events); err != nil {
			return err
		}
		// The cluster path is pipelined: its layers overlap, so there is
		// no sum to conserve (README "How the layers interact").
		return nil
	}

	// The budget. A stream_* request is a serial path — decode, apply,
	// finalize, WAL append, ack — so over the replayed batches the wire
	// floor, the engine and the WAL must add up to the request time.
	wall := sum(run.req[:k]) / 1e3
	wireS := sum(wireFloor) / 1e3
	m.set("budget.wire_s", wireS, "s")
	m.set("budget.engine_s", engineS, "s")
	m.set("budget.store_s", storeS, "s")
	m.set("budget.wall_s", wall, "s")
	m.set("budget.residual_frac", div(math.Abs(wireS+engineS+storeS-wall), wall), "frac")
	m.set("stream.share_of_wall", div(engineS, wall), "frac")
	return nil
}

// batchFunc handles batch i of the stream; eachFunc calls untimed for
// the warm-up batches and timed for the replayed ones, in stream order.
type (
	batchFunc func(i int, evs []temporal.Event) error
	eachFunc  func(timed, untimed batchFunc) error
)

// skip is the untimed half of a replay whose layer keeps no state.
func skip(int, []temporal.Event) error { return nil }

// floor pushes the batches into a fresh zero-subscription, non-durable
// daemon over one transport and returns the per-request times in ms.
func floor(tr *tracer, name string, each eachFunc, dial func(*daemon) (sender, func(), error)) ([]float64, error) {
	d, err := startDaemon(server.Config{Member: true})
	if err != nil {
		return nil, err
	}
	defer d.close()
	dep, hangup, err := dial(d)
	if err != nil {
		return nil, err
	}
	defer hangup()
	root := tr.start("replay."+name, 0, 0)
	defer tr.end(root)
	var lat []float64
	err = each(func(i int, evs []temporal.Event) error {
		dep.prepare(evs)
		d, err := tr.timed(name, root, int64(i+1), func() error { return dep.send(int64(i + 1)) })
		lat = append(lat, d*1e3)
		return err
	}, func(i int, evs []temporal.Event) error {
		dep.prepare(evs)
		return dep.send(int64(i + 1))
	})
	return lat, err
}

// engineReplay drives stream.Engine.IngestWithAck directly and returns
// the seconds spent in the timed batches.
func engineReplay(tr *tracer, name string, subs []stream.Subscription, each eachFunc, disableObs bool) (float64, *timingSink, stream.Stats, error) {
	sink := newTimingSink()
	eng, err := stream.NewEngine(stream.Config{Subs: subs, DisableObs: disableObs}, sink)
	if err != nil {
		return 0, nil, stream.Stats{}, err
	}
	root := tr.start(name, 0, 0)
	defer tr.end(root)
	var total float64
	ingest := func(evs []temporal.Event) error {
		_, err := eng.IngestWithAck(evs)
		return err
	}
	err = each(func(i int, evs []temporal.Event) error {
		d, err := tr.timed("stream.Engine.IngestWithAck", root, int64(i+1), func() error { return ingest(evs) })
		total += d
		return err
	}, func(_ int, evs []temporal.Event) error {
		err := ingest(evs)
		sink.ns, sink.n = 0, 0 // only the replayed batches' emits count
		return err
	})
	return total, sink, eng.Stats(), err
}

// storeReplay appends the batches to a fresh store, then reads them
// back two ways; it returns the seconds spent appending.
func storeReplay(m *metricSet, tr *tracer, rig *servingRig, each eachFunc, events float64) (float64, error) {
	dir := filepath.Join(rig.dir, "replay-store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	root := tr.start("replay.store", 0, 0)
	defer tr.end(root)
	var appendS float64
	err = each(func(i int, evs []temporal.Event) error {
		d, err := tr.timed("store.Store.Append", root, int64(i+1), func() error { return st.Append(evs) })
		appendS += d
		return err
	}, skip)
	if err != nil {
		return 0, err
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		size += info.Size()
		return err
	})
	if err != nil {
		return 0, err
	}
	replayS, err := tr.timed("store.Store.Replay", root, 0, func() error {
		return st.Replay(0, func(int64, temporal.Event) bool { return true })
	})
	if err != nil {
		return 0, err
	}
	queryS, err := tr.timed("store.Store.Query", root, 0, func() error {
		_, err := st.Query(motif.MustPath(0, 1, 2, 0), core.Params{Delta: 600, Phi: 3}, store.QueryOptions{}, nil)
		return err
	})
	if err != nil {
		return 0, err
	}
	m.set("store.append_ns_per_event", div(appendS*1e9, events), "ns/event")
	m.set("store.bytes_per_event", div(float64(size), events), "B/event")
	m.set("store.replay_ns_per_event", div(replayS*1e9, events), "ns/event")
	m.set("store.query_ns_per_event", div(queryS*1e9, events), "ns/event")
	return appendS, nil
}

// recoverReplay measures server.New on a data dir that holds a mid-run
// snapshot and a WAL tail: what a crashed daemon pays to come back.
// The daemon takes the warm-up and a quarter of the replayed batches
// and checkpoints halfway through that quarter.
func recoverReplay(m *metricSet, tr *tracer, rig *servingRig, warm, k int) error {
	dir := filepath.Join(rig.dir, "replay-recover")
	cfg := daemonConfig(rig.subs, dir, false)
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	tail := max(k/4, 2)
	for i := 0; i < warm+tail; i++ {
		if err := ingestDirect(srv, rig.batch(i)); err != nil {
			srv.Close()
			return err
		}
		if i == warm+tail/2-1 {
			if _, err := srv.Snapshot(); err != nil {
				srv.Close()
				return err
			}
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	// Close checkpointed on its way out; a crash would not have. Removing
	// that newest snapshot leaves what a crash leaves: the mid-run
	// checkpoint and the WAL written since.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap", "*.snap"))
	if err != nil || len(snaps) < 2 {
		return fmt.Errorf("recovery replay: expected two snapshots in %s, found %d (%v)", dir, len(snaps), err)
	}
	sort.Strings(snaps)
	if err := os.Remove(snaps[len(snaps)-1]); err != nil {
		return err
	}
	var again *server.Server
	d, err := tr.timed("server.New(recover)", 0, 0, func() (err error) {
		again, err = server.New(cfg)
		return err
	})
	if err != nil {
		return err
	}
	defer again.Close()
	if rec := again.Recovery(); !rec.FromSnapshot || rec.Replayed == 0 {
		return fmt.Errorf("recovery replay: expected a snapshot and a WAL tail, got %+v", rec)
	}
	m.set("server.recover_s", d, "s")
	return nil
}

// ingestDirect feeds one batch to a server without a socket, through
// its HTTP handler driven in-process.
func ingestDirect(srv *server.Server, evs []temporal.Event) error {
	body := appendIngestJSON(nil, evs)
	req, err := http.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process POST /ingest: %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

// temporalAndCore replays the retention log and, at every 16th batch
// boundary, the eviction, the band-graph build and the two search
// phases over the band.
func temporalAndCore(m *metricSet, tr *tracer, rig *servingRig, warm, k int) error {
	var maxDelta int64
	type shape struct {
		mo    *motif.Motif
		delta int64 // largest δ subscribed for the shape
		phi   float64
	}
	var shapes []*shape
	byKey := map[string]*shape{}
	for _, s := range rig.subs {
		sh := byKey[s.Motif.ShapeKey()]
		if sh == nil {
			sh = &shape{mo: s.Motif, phi: s.Phi}
			byKey[s.Motif.ShapeKey()] = sh
			shapes = append(shapes, sh)
		}
		sh.delta = max(sh.delta, s.Delta)
		sh.phi = min(sh.phi, s.Phi)
		maxDelta = max(maxDelta, s.Delta)
	}
	root := tr.start("replay.temporal+core", 0, 0)
	defer tr.end(root)
	log := temporal.NewWindowLog()
	var arena temporal.GraphArena
	var appendS, evictS, buildS float64
	var appended, evicted, built int
	var ps phaseSplit
	for i := 0; i < warm+k; i++ {
		evs := rig.batch(i)
		t := time.Now()
		for _, e := range evs {
			if err := log.Append(e); err != nil {
				return err
			}
		}
		if i >= warm {
			appendS += time.Since(t).Seconds()
			appended += len(evs)
		}
		if i < warm || (i-warm)%16 != 15 {
			continue
		}
		w, _ := log.Watermark()
		lo := w - 2*maxDelta
		t = time.Now()
		n := log.EvictBefore(lo)
		evictS += time.Since(t).Seconds()
		evicted += n
		var g *temporal.Graph
		d, err := tr.timed("temporal.WindowLog.BuildGraphArena", root, int64(i+1), func() (err error) {
			g, err = log.BuildGraphArena(&arena, lo, w)
			return err
		})
		buildS += d
		if err != nil {
			return err
		}
		built += g.NumEvents()
		for _, sh := range shapes {
			p := core.Params{Delta: sh.delta, Phi: sh.phi}
			err := ps.addRange(tr, g, sh.mo, p, func(ms []match.Match) (core.EnumStats, error) {
				return core.EnumerateMatchesRange(g, sh.mo, ms, p, lo, w-sh.delta, nil)
			})
			if err != nil {
				return err
			}
		}
	}
	m.set("temporal.windowlog_append_ns_per_event", div(appendS*1e9, float64(appended)), "ns/event")
	m.set("temporal.evict_ns_per_event", div(evictS*1e9, float64(evicted)), "ns/event")
	m.set("temporal.band_build_ns_per_event", div(buildS*1e9, float64(built)), "ns/event")
	ps.report(m)
	return nil
}

// clusterLayers fills the cluster.* metrics: the replication pipeline
// alone over members that do nothing, and what the composed run's
// coordinator reports.
func clusterLayers(m *metricSet, tr *tracer, rig *servingRig, cr *clusterRig, run *servingRun, cs *clusterSampler, each eachFunc, events float64) error {
	c, err := cluster.New(cluster.Config{Members: []cluster.Member{&idleMember{id: "m0"}, &idleMember{id: "m1"}}, Subs: rig.subs})
	if err != nil {
		return err
	}
	root := tr.start("replay.cluster", 0, 0)
	var pipeS float64
	ingest := func(_ int, evs []temporal.Event) error {
		_, err := c.Ingest(evs)
		return err
	}
	err = each(func(i int, evs []temporal.Event) error {
		d, err := tr.timed("cluster.Coordinator.Ingest", root, int64(i+1), func() error { return ingest(i, evs) })
		pipeS += d
		return err
	}, ingest)
	if err == nil {
		var d float64
		d, err = tr.timed("cluster.Coordinator.Drain", root, 0, c.Drain)
		pipeS += d
	}
	tr.end(root)
	c.Close()
	if err != nil {
		return err
	}
	m.set("cluster.pipeline_ns_per_event", div(pipeS*1e9, events), "ns/event")
	m.set("cluster.ack_s", run.writeS, "s")
	m.set("cluster.drain_s", run.flushS, "s")
	m.set("cluster.backpressure_waits", float64(cr.coord.Stats().Backpressure), "count")
	if cs != nil {
		m.set("cluster.log_entries_max", float64(cs.logEntriesMax), "count")
	}
	var idle []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		if _, _, err := cr.coord.TopK(rig.subs[i%len(rig.subs)].ID, queryK); err != nil {
			return err
		}
		idle = append(idle, ms(time.Since(t)))
	}
	m.set("cluster.topk_idle_ms_p50", median(idle), "ms")
	return nil
}

// idleMember is a cluster.Member that acknowledges everything and does
// nothing, so that the pipeline replay times the coordinator alone.
type idleMember struct {
	id string
	w  int64
}

func (m *idleMember) ID() string { return m.id }

func (m *idleMember) Ingest(b cluster.Batch) (cluster.IngestAck, error) {
	if n := len(b.Events); n > 0 {
		m.w = b.Events[n-1].T
	}
	return cluster.IngestAck{Ingested: len(b.Events), Watermark: m.w, Seq: b.Seq}, nil
}

func (m *idleMember) Flush() (cluster.IngestAck, error) {
	return cluster.IngestAck{Watermark: m.w}, nil
}
func (m *idleMember) AddSubscription(cluster.Handoff) error { return nil }
func (m *idleMember) RemoveSubscription(string) (cluster.Handoff, error) {
	return cluster.Handoff{}, nil
}
func (m *idleMember) Instances(string, int) (cluster.QueryResult, error) {
	return cluster.QueryResult{Watermark: m.w}, nil
}
func (m *idleMember) TopK(string, int) (cluster.QueryResult, error) {
	return cluster.QueryResult{Watermark: m.w}, nil
}
func (m *idleMember) Stats() (cluster.MemberStats, error) {
	return cluster.MemberStats{ID: m.id, Watermark: m.w}, nil
}
func (m *idleMember) Traces(string) ([]obs.SpanRecord, error) { return nil, nil }
