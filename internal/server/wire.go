package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/temporal"
	"flowmotif/internal/wire"
)

// This file is the binary wire-protocol listener (DESIGN.md §16): a
// persistent-connection TCP endpoint served next to the JSON API that
// decodes length-prefixed batch frames straight into a per-connection
// recycled event buffer and feeds them to the same shard (cluster.Shard)
// the HTTP handler calls — same seq dedup, WAL coupling, fail-stop and
// error taxonomy, ~zero per-event cost on the decode path.

// wireMetrics bundles the binary listener's instruments. All of them are
// registered up front in New (not lazily at first connection) so a scrape
// — and the metrics-catalog drift check — sees the full wire series set
// whether or not a listener is armed. The struct pointer doubles as the
// observability gate for the serve loop's clocks: s.wx == nil under
// Config.DisableObs.
//
//flowmotif:obsgate
type wireMetrics struct {
	conns      *obs.Gauge
	req2xx     *obs.Counter
	req4xx     *obs.Counter
	req5xx     *obs.Counter
	events     *obs.Counter
	decode     *obs.Histogram
	apply      *obs.Histogram
	frameBytes *obs.Histogram
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	const reqHelp = "Binary wire-protocol batch frames handled, by response class (2xx/4xx/5xx equivalents of the HTTP taxonomy)."
	return &wireMetrics{
		conns: reg.Gauge("flowmotif_wire_connections",
			"Open binary wire-protocol connections."),
		req2xx: reg.Counter("flowmotif_wire_requests_total", reqHelp, obs.L("code", "2xx")),
		req4xx: reg.Counter("flowmotif_wire_requests_total", reqHelp, obs.L("code", "4xx")),
		req5xx: reg.Counter("flowmotif_wire_requests_total", reqHelp, obs.L("code", "5xx")),
		events: reg.Counter("flowmotif_wire_events_total",
			"Events ingested over the binary wire protocol."),
		decode: reg.Histogram("flowmotif_wire_decode_seconds",
			"Wire frame decode latency (preamble + event run, excluding socket reads).", nil),
		apply: reg.Histogram("flowmotif_wire_apply_seconds",
			"Wire batch apply latency (engine ingest + WAL append).", nil),
		frameBytes: reg.Histogram("flowmotif_wire_frame_bytes",
			"Wire frame payload sizes in bytes.", obs.SizeBuckets),
	}
}

// observe records one handled frame by response class; the 5xx count
// feeds the SLO watchdog's error burn rate exactly like HTTP 5xx does.
func (m *wireMetrics) observe(status int) {
	if m == nil {
		return
	}
	switch codeClass(status) {
	case "2xx":
		m.req2xx.Add(1)
	case "5xx":
		m.req5xx.Add(1)
	default:
		m.req4xx.Add(1)
	}
}

// StartWire arms the binary wire-protocol listener on addr (e.g.
// ":9091"); the returned string is the bound address (useful with port
// 0). The listener serves until StopWire or Close. A server accepts at
// most one wire listener at a time.
func (s *Server) StartWire(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.wireMu.Lock()
	if s.wireLn != nil {
		s.wireMu.Unlock()
		ln.Close()
		return "", errors.New("server: wire listener already started")
	}
	s.wireLn = ln
	s.wirePort = ln.Addr().(*net.TCPAddr).Port
	s.wireConns = map[net.Conn]struct{}{}
	s.wireMu.Unlock()
	s.wireWG.Add(1)
	go s.acceptWire(ln)
	return ln.Addr().String(), nil
}

// WirePort reports the bound wire listener port (0 when not armed).
func (s *Server) WirePort() int {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.wireLn == nil {
		return 0
	}
	return s.wirePort
}

// StopWire closes the wire listener and every open connection, then
// waits for the per-connection goroutines to drain. Idempotent; no-op
// when no listener was started.
func (s *Server) StopWire() {
	s.wireMu.Lock()
	ln := s.wireLn
	s.wireLn = nil
	conns := s.wireConns
	s.wireConns = nil
	s.wireMu.Unlock()
	if ln == nil {
		return
	}
	ln.Close()
	for c := range conns {
		c.Close()
	}
	s.wireWG.Wait()
}

func (s *Server) acceptWire(ln net.Listener) {
	defer s.wireWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wireMu.Lock()
		if s.wireConns == nil { // StopWire raced the accept
			s.wireMu.Unlock()
			conn.Close()
			return
		}
		s.wireConns[conn] = struct{}{}
		s.wireMu.Unlock()
		s.wireWG.Add(1)
		go s.serveWireConn(conn)
	}
}

func (s *Server) dropWireConn(conn net.Conn) {
	conn.Close()
	s.wireMu.Lock()
	if s.wireConns != nil {
		delete(s.wireConns, conn)
	}
	s.wireMu.Unlock()
}

// serveWireConn runs one persistent connection: read frame, decode into
// the recycled buffer, apply through the shard, answer with
// an ack or a typed error frame. Framing-level failures (bad magic or
// CRC, oversized declared length) answer an error frame and close the
// connection — the byte stream cannot be resynced; semantic rejections
// (behind-frontier, fail-stop, validation) keep it open, mirroring how
// an HTTP 4xx/5xx keeps the keep-alive connection alive.
//
//flowmotif:hotpath
func (s *Server) serveWireConn(conn net.Conn) {
	defer s.wireWG.Done()
	defer s.dropWireConn(conn)
	if s.wx != nil {
		s.wx.conns.Add(1)
		defer s.wx.conns.Add(-1)
	}
	dec := wire.NewDecoder(bufio.NewReaderSize(conn, 1<<16))
	var out []byte // recycled response-frame buffer
	for {
		frame, err := dec.Next()
		if err != nil {
			if err != io.EOF {
				out = s.writeWireError(conn, out, err)
			}
			return
		}
		if frame.Type != wire.FrameBatch {
			out = s.writeWireError(conn, out,
				fmt.Errorf("%w: unexpected frame type 0x%02x from client", wire.ErrMalformed, frame.Type))
			return
		}
		var t0 time.Time
		if s.wx != nil {
			t0 = time.Now()
		}
		var root *obs.TraceSpan
		var evs []temporal.Event
		var derr error
		if s.ro.tracer != nil {
			parent, _ := obs.ParseTraceparent(frame.Traceparent)
			root = s.ro.tracer.StartSpan("wire.ingest", parent,
				obs.L("events", strconv.Itoa(frame.Count)),
				obs.L("seq", strconv.FormatInt(frame.Seq, 10)))
			dsp := s.ro.tracer.StartSpan("wire.decode", root.Context(),
				obs.L("bytes", strconv.Itoa(frame.PayloadLen)))
			evs, derr = dec.Events()
			dsp.End()
		} else {
			evs, derr = dec.Events()
		}
		if s.wx != nil {
			s.wx.decode.ObserveExemplar(time.Since(t0).Seconds(), root.Context().Trace)
			s.wx.frameBytes.Observe(float64(frame.PayloadLen))
		}
		if derr != nil {
			if root != nil {
				root.Annotate(obs.L("error", derr.Error()))
				root.End()
			}
			s.wx.observe(http.StatusBadRequest)
			out = s.writeWireError(conn, out, derr)
			return
		}
		var t1 time.Time
		if s.wx != nil {
			t1 = time.Now()
		}
		resp, aerr := s.shard.Ingest(evs, frame.Seq, root.Context())
		status := http.StatusOK
		if aerr != nil {
			status = errStatus(aerr)
		}
		if s.wx != nil {
			s.wx.apply.ObserveExemplar(time.Since(t1).Seconds(), root.Context().Trace)
			if status < 300 {
				s.wx.events.Add(int64(len(evs)))
			}
		}
		s.wx.observe(status)
		if root != nil {
			root.Annotate(obs.L("code", strconv.Itoa(status)))
			if aerr != nil {
				root.Annotate(obs.L("error", aerr.Error()))
			}
			root.End()
		}
		if aerr != nil {
			out = wire.AppendErrorFrame(out[:0], wireErrorCode(status), aerr.Error())
			if _, werr := conn.Write(out); werr != nil {
				return
			}
			continue
		}
		out = wire.AppendAckFrame(out[:0], wire.Ack{
			Seq:        resp.Seq,
			Ingested:   int64(resp.Ingested),
			Watermark:  resp.Watermark,
			Detections: resp.Detections,
			Dup:        resp.Dup,
			Trace:      resp.Trace,
		})
		if _, werr := conn.Write(out); werr != nil {
			return
		}
	}
}

// writeWireError answers a framing-level failure with a typed error
// frame (the caller then closes the connection). Returns the recycled
// buffer.
func (s *Server) writeWireError(conn net.Conn, out []byte, err error) []byte {
	code := wire.CodeBadFrame
	status := http.StatusBadRequest
	if errors.Is(err, wire.ErrFrameTooLarge) {
		// The 413 mirror: declared payload over wire.DefaultMaxFrameBytes.
		code = wire.CodeFrameTooLarge
		status = http.StatusRequestEntityTooLarge
	}
	s.wx.observe(status)
	out = wire.AppendErrorFrame(out[:0], code, err.Error())
	_, _ = conn.Write(out)
	return out
}

// wireErrorCode takes the status errStatus mapped a shard error to on to
// its wire error code.
func wireErrorCode(status int) wire.ErrorCode {
	switch {
	case status == http.StatusConflict:
		return wire.CodeBehindFrontier
	case status >= http.StatusInternalServerError:
		return wire.CodeInternal
	default:
		return wire.CodeRejected
	}
}
