package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"

	"flowmotif/internal/cluster"
	"flowmotif/internal/server"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// daemonRig is the stream_* deployment: one durable daemon, fed through
// one persistent binary wire connection.
type daemonRig struct {
	d *daemon
	wireSender
}

// wireSender sends batches over one persistent binary wire connection.
type wireSender struct {
	cl   *wire.Client
	next []temporal.Event
}

func deployDaemon(subs []stream.Subscription, dir string) (deployment, error) {
	d, err := startDaemon(daemonConfig(subs, dir, false))
	if err != nil {
		return nil, err
	}
	cl, err := wire.Dial(d.wire, 0)
	if err != nil {
		d.close()
		return nil, err
	}
	return &daemonRig{d, wireSender{cl: cl}}, nil
}

// prepare only remembers the batch: encoding the frame is wire.Client's
// work, part of the request.
func (s *wireSender) prepare(evs []temporal.Event) { s.next = evs }

func (s *wireSender) send(seq int64) error {
	ack, err := s.cl.Ingest(seq, "", s.next)
	if err != nil {
		return err
	}
	if ack.Ingested != int64(len(s.next)) || ack.Dup {
		return fmt.Errorf("wire ack: ingested %d of %d (dup %v)", ack.Ingested, len(s.next), ack.Dup)
	}
	return nil
}

func (r *daemonRig) frontURL() string { return r.d.ts.URL }

func (r *daemonRig) subDetections() (map[string]int64, error) {
	return engineDetections(r.d.srv.Engine()), nil
}

func (r *daemonRig) close() {
	r.cl.Close()
	r.d.close()
}

func engineDetections(e *stream.Engine) map[string]int64 {
	out := map[string]int64{}
	for _, s := range e.Stats().Subs {
		out[s.ID] = s.Detections
	}
	return out
}

// clusterRig is the cluster_mixed deployment: a coordinator front door
// over the replication pipeline and two durable member daemons, each
// reached by cluster.HTTPMember, which upgrades deliveries to the binary
// wire protocol after probing the member's /healthz.
type clusterRig struct {
	members []*daemon
	https   []*cluster.HTTPMember
	coord   *cluster.Coordinator
	front   *httptest.Server
	jsonSender
}

// jsonSender posts batches as JSON to base's /ingest.
type jsonSender struct {
	client *http.Client
	base   string
	body   []byte
}

const clusterMembers = 2

func deployCluster(subs []stream.Subscription, dir string) (deployment, error) {
	r := &clusterRig{jsonSender: jsonSender{client: &http.Client{}}}
	var ms []cluster.Member
	for i := 0; i < clusterMembers; i++ {
		d, err := startDaemon(daemonConfig(nil, fmt.Sprintf("%s/m%d", dir, i), true))
		if err != nil {
			r.close()
			return nil, err
		}
		r.members = append(r.members, d)
		hm := cluster.NewHTTPMember(fmt.Sprintf("m%d", i), d.ts.URL, nil)
		r.https = append(r.https, hm)
		ms = append(ms, hm)
	}
	c, err := cluster.New(cluster.Config{Members: ms, Subs: subs})
	if err != nil {
		r.close()
		return nil, err
	}
	r.coord = c
	r.front = httptest.NewServer(server.NewCoordinator(c, 0).Handler())
	r.base = r.front.URL
	return r, nil
}

// prepare encodes the JSON body of the next POST /ingest into a reused
// buffer.
func (s *jsonSender) prepare(evs []temporal.Event) { s.body = appendIngestJSON(s.body[:0], evs) }

// send posts the prepared body; the front door numbers batches itself.
func (s *jsonSender) send(int64) error {
	resp, err := s.client.Post(s.base+"/ingest", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST /ingest: %d: %s", resp.StatusCode, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// appendIngestJSON renders the POST /ingest body for one batch.
func appendIngestJSON(dst []byte, evs []temporal.Event) []byte {
	dst = append(dst, `{"events":[`...)
	for i, e := range evs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"from":`...)
		dst = strconv.AppendInt(dst, int64(e.From), 10)
		dst = append(dst, `,"to":`...)
		dst = strconv.AppendInt(dst, int64(e.To), 10)
		dst = append(dst, `,"t":`...)
		dst = strconv.AppendInt(dst, e.T, 10)
		dst = append(dst, `,"f":`...)
		dst = strconv.AppendFloat(dst, e.F, 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

func (r *clusterRig) frontURL() string { return r.front.URL }

func (r *clusterRig) subDetections() (map[string]int64, error) {
	out := map[string]int64{}
	for _, d := range r.members {
		for id, n := range engineDetections(d.srv.Engine()) {
			out[id] = n
		}
	}
	return out, nil
}

func (r *clusterRig) close() {
	if r.front != nil {
		r.front.Close()
	}
	if r.coord != nil {
		r.coord.Close()
	}
	for _, hm := range r.https {
		hm.CloseWire()
	}
	for _, d := range r.members {
		d.close()
	}
	r.client.CloseIdleConnections()
}

// clusterSampler reads the coordinator's replication gauges during the
// traced run (the reader calls it about once a second).
type clusterSampler struct {
	rig           *clusterRig
	logEntriesMax int
}

func (s *clusterSampler) sample() {
	if n := s.rig.coord.Stats().LogEntries; n > s.logEntriesMax {
		s.logEntriesMax = n
	}
}
