package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flowmotif/internal/cluster"
	"flowmotif/internal/motif"
	"flowmotif/internal/obs"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// admitState is what a refused call must leave as it was: the watermark,
// the events appended, the WAL (or replication-log) seq and the
// subscriptions served, where the entrance has them.
type admitState struct {
	watermark, appended, seq int64
	subs                     int
}

// admitEntrance is one way events enter the system.
type admitEntrance struct {
	admit      func(evs []temporal.Event) error
	state      func() admitState
	frontier   bool // it holds a stream frontier
	noIDs      bool // its encoding cannot carry a negative node id (a wire frame) or any id (WithFlows)
	finiteOnly bool // its encoding is JSON: no NaN or ±Inf flow
}

func engineState(eng *stream.Engine, wal *store.Store) func() admitState {
	return func() admitState {
		st := eng.Stats()
		s := admitState{watermark: st.Watermark, appended: st.EventsIngested, subs: len(st.Subs)}
		if wal != nil {
			s.seq = wal.Seq()
		}
		return s
	}
}

func coordinatorState(c *cluster.Coordinator) func() admitState {
	return func() admitState {
		h := c.Health()
		return admitState{watermark: h.Watermark, appended: h.Events, seq: h.HeadSeq, subs: h.Subscriptions}
	}
}

// refusedAs reports whether err is the refusal want (temporal's
// ErrInvalidEvent or ErrBehindFrontier) in the form its entrance gives it:
// the error itself in process, 400 or 409 over HTTP, CodeRejected or
// CodeBehindFrontier on a wire frame.
func refusedAs(err, want error) bool {
	var se statusError
	var re *wire.RemoteError
	switch {
	case errors.As(err, &se):
		return (want == temporal.ErrInvalidEvent && se == http.StatusBadRequest) ||
			(want == temporal.ErrBehindFrontier && se == http.StatusConflict)
	case errors.As(err, &re):
		return (want == temporal.ErrInvalidEvent && re.Code == wire.CodeRejected) ||
			(want == temporal.ErrBehindFrontier && re.Code == wire.CodeBehindFrontier)
	default:
		return errors.Is(err, want)
	}
}

// rawBatchFrame encodes an untagged batch frame byte by byte, as
// DESIGN.md §16 lays it out. The Encoder refuses an invalid event before
// it leaves the client, so this is how a hostile or foreign client's frame
// reaches the listener. evs must be in time order.
func rawBatchFrame(evs []temporal.Event) []byte {
	p := []byte{0, 0, 0, 0} // flags, seq, traceparent length, reserved
	p = binary.AppendUvarint(p, uint64(len(evs)))
	for i, ev := range evs {
		p = binary.AppendUvarint(p, uint64(ev.From))
		p = binary.AppendUvarint(p, uint64(ev.To))
		if i == 0 {
			p = binary.AppendVarint(p, ev.T)
		} else {
			p = binary.AppendUvarint(p, uint64(ev.T-evs[i-1].T))
		}
		p = binary.AppendUvarint(p, bits.ReverseBytes64(math.Float64bits(ev.F)))
	}
	frame := binary.LittleEndian.AppendUint32([]byte{'F', 'M', wire.Version, wire.FrameBatch}, uint32(len(p)))
	frame = append(frame, p...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(p))
}

// TestEveryEntranceAdmitsAlike drives the stream contract's two refusals
// — an invalid event and a batch behind the frontier — through every
// entrance that admits events, and expects the one gate's answer in that
// entrance's form (refusedAs). A refused call changes nothing (admitState),
// and a valid batch still passes afterwards.
func TestEveryEntranceAdmitsAlike(t *testing.T) {
	sub := stream.Subscription{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}
	late := stream.Subscription{ID: "late", Motif: motif.MustPath(0, 1, 2), Delta: 5}
	subs := []stream.Subscription{sub}
	prime := []temporal.Event{{From: 0, To: 1, T: 10, F: 1}}
	next := []temporal.Event{{From: 0, To: 1, T: 30, F: 1}, {From: 1, To: 2, T: 30, F: 2}}

	ingestOver := func(ts *httptest.Server) func([]temporal.Event) error {
		return func(evs []temporal.Event) error {
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/ingest", map[string]interface{}{"events": wireEvents(evs)})
			if resp.StatusCode != http.StatusOK {
				return statusError(resp.StatusCode)
			}
			return nil
		}
	}
	coordinator := func(t *testing.T) *cluster.Coordinator {
		lm, err := cluster.NewLocalMember("m", cluster.LocalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(cluster.Config{Members: []cluster.Member{lm}, Subs: subs, RetryDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := c.Ingest(prime); err != nil {
			t.Fatal(err)
		}
		return c
	}
	daemon := func(t *testing.T) (*Server, *httptest.Server, string) {
		srv, ts, addr := startWireServer(t, Config{Subs: subs, DataDir: t.TempDir()})
		if _, err := srv.shard.Ingest(prime, 0, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		return srv, ts, addr
	}
	newEngine := func(t *testing.T) *stream.Engine {
		eng, err := stream.NewEngine(stream.Config{Subs: subs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	entrances := map[string]func(t *testing.T) admitEntrance{
		"Engine.IngestWithAck": func(t *testing.T) admitEntrance {
			eng := newEngine(t)
			if _, err := eng.Ingest(prime); err != nil {
				t.Fatal(err)
			}
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					_, err := eng.IngestWithAck(evs)
					return err
				},
				state:    engineState(eng, nil),
				frontier: true,
			}
		},
		"Engine.AddSubscription catch-up": func(t *testing.T) admitEntrance {
			eng := newEngine(t)
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					return eng.AddSubscription(late, stream.AddOptions{Catchup: evs})
				},
				state: engineState(eng, nil),
			}
		},
		"Engine.Restore": func(t *testing.T) admitEntrance {
			src := newEngine(t)
			if _, err := src.Ingest(prime); err != nil {
				t.Fatal(err)
			}
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			eng := newEngine(t)
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					s := *snap
					w := evs[len(evs)-1].T
					s.MinNextT = w
					s.Log = temporal.WindowLogState{Events: evs, Appended: int64(len(evs)), Watermark: w, Started: true}
					return eng.Restore(&s)
				},
				state: engineState(eng, nil),
			}
		},
		"Coordinator.Ingest": func(t *testing.T) admitEntrance {
			c := coordinator(t)
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					_, err := c.Ingest(evs)
					return err
				},
				state:    coordinatorState(c),
				frontier: true,
			}
		},
		"store.Append": func(t *testing.T) admitEntrance {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			if err := st.Append(prime); err != nil {
				t.Fatal(err)
			}
			return admitEntrance{
				admit:    st.Append,
				state:    func() admitState { return admitState{seq: st.Seq()} },
				frontier: true,
			}
		},
		"NewGraph": func(t *testing.T) admitEntrance {
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					_, err := temporal.NewGraph(evs)
					return err
				},
				state: func() admitState { return admitState{} },
			}
		},
		"NewGraphWithNodes": func(t *testing.T) admitEntrance {
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					_, err := temporal.NewGraphWithNodes(8, evs)
					return err
				},
				state: func() admitState { return admitState{} },
			}
		},
		"Graph.WithFlows": func(t *testing.T) admitEntrance {
			g, err := temporal.NewGraph(next)
			if err != nil {
				t.Fatal(err)
			}
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					flows := make([]float64, len(evs))
					for i := range evs {
						flows[i] = evs[i].F
					}
					_, err := g.WithFlows(flows)
					return err
				},
				state: func() admitState { return admitState{} },
				noIDs: true,
			}
		},
		"POST /ingest (daemon)": func(t *testing.T) admitEntrance {
			srv, ts, _ := daemon(t)
			return admitEntrance{
				admit:      ingestOver(ts),
				state:      engineState(srv.Engine(), srv.shard.Store()),
				frontier:   true,
				finiteOnly: true,
			}
		},
		"POST /ingest (coordinator)": func(t *testing.T) admitEntrance {
			c := coordinator(t)
			ts := httptest.NewServer(NewCoordinator(c, 1<<20).Handler())
			t.Cleanup(ts.Close)
			return admitEntrance{
				admit:      ingestOver(ts),
				state:      coordinatorState(c),
				frontier:   true,
				finiteOnly: true,
			}
		},
		"wire batch frame": func(t *testing.T) admitEntrance {
			srv, _, addr := daemon(t)
			conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			dec := wire.NewDecoder(conn)
			return admitEntrance{
				// One connection throughout: a refusal keeps it open.
				admit: func(evs []temporal.Event) error {
					if _, err := conn.Write(rawBatchFrame(evs)); err != nil {
						return err
					}
					f, err := dec.Next()
					if err != nil || f.Type != wire.FrameError {
						return err
					}
					re, err := dec.RemoteErr()
					if err != nil {
						return err
					}
					return re
				},
				state:    engineState(srv.Engine(), srv.shard.Store()),
				frontier: true,
				noIDs:    true,
			}
		},
		"POST /cluster/add-sub": func(t *testing.T) admitEntrance {
			srv, err := New(Config{Member: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			return admitEntrance{
				admit: func(evs []temporal.Event) error {
					resp, _ := postJSON(t, ts.Client(), ts.URL+"/cluster/add-sub",
						cluster.Handoff{Sub: cluster.SpecOf(late), Catchup: evs})
					if resp.StatusCode != http.StatusOK {
						return statusError(resp.StatusCode)
					}
					return nil
				},
				state:      engineState(srv.Engine(), nil),
				finiteOnly: true,
			}
		},
	}

	// Each bad batch pairs a valid event with the bad one, so a refusal
	// must be of the whole batch.
	ok := temporal.Event{From: 0, To: 1, T: 20, F: 1}
	rows := []struct {
		name      string
		batch     []temporal.Event
		want      error
		id        bool // the bad value is a node id
		nonFinite bool // the bad value is a NaN or infinite flow
	}{
		{name: "From -1", batch: []temporal.Event{ok, {From: -1, To: 1, T: 20, F: 1}}, want: temporal.ErrInvalidEvent, id: true},
		{name: "To -1", batch: []temporal.Event{ok, {From: 0, To: -1, T: 20, F: 1}}, want: temporal.ErrInvalidEvent, id: true},
		// The node-id bound (ROADMAP item 1) gets its rows here once it is
		// decided: id 2³¹−1 served, or refused alike at every entrance.
		{name: "F 0", batch: []temporal.Event{ok, {From: 0, To: 1, T: 20, F: 0}}, want: temporal.ErrInvalidEvent},
		{name: "F -1", batch: []temporal.Event{ok, {From: 0, To: 1, T: 20, F: -1}}, want: temporal.ErrInvalidEvent},
		{name: "F NaN", batch: []temporal.Event{ok, {From: 0, To: 1, T: 20, F: math.NaN()}}, want: temporal.ErrInvalidEvent, nonFinite: true},
		{name: "F +Inf", batch: []temporal.Event{ok, {From: 0, To: 1, T: 20, F: math.Inf(1)}}, want: temporal.ErrInvalidEvent, nonFinite: true},
		{name: "behind the frontier", batch: []temporal.Event{{From: 0, To: 1, T: 5, F: 1}}, want: temporal.ErrBehindFrontier},
	}

	for name, build := range entrances {
		t.Run(name, func(t *testing.T) {
			e := build(t)
			before := e.state()
			ran := 0
			for _, row := range rows {
				if (row.id && e.noIDs) || (row.nonFinite && e.finiteOnly) ||
					(row.want == temporal.ErrBehindFrontier && !e.frontier) {
					continue // this entrance cannot carry the value, or holds no frontier
				}
				ran++
				if err := e.admit(row.batch); !refusedAs(err, row.want) {
					t.Errorf("%s: %v, want %v in this entrance's form", row.name, err, row.want)
				}
				if got := e.state(); got != before {
					t.Errorf("%s: the refused call changed the state from %+v to %+v", row.name, before, got)
				}
			}
			if ran == 0 {
				t.Fatal("no row ran")
			}
			if err := e.admit(next); err != nil {
				t.Fatalf("a valid batch after the refusals: %v", err)
			}
		})
	}
}
