package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"

	"flowmotif/internal/wire"
)

// This file is HTTPMember's ingest transport: replication deliveries
// travel as binary batch frames over one persistent connection to the
// member daemon's wire listener, whose port the member advertises as
// "wirePort" on /healthz (flowmotifd -member always arms one). Everything
// else (flush, handoffs, queries, stats) stays on HTTP: those are rare
// control-plane calls, not the hot path.

// Ingest implements Member. The replication sequence tag travels as the
// batch frame's seq trailer; the member daemon deduplicates resends by it
// (answering with its recorded ack, dup=true), which is what makes retry
// after a lost ack safe. Transport failures wrap ErrMemberDown
// (retryable: the replicator re-probes and redials on the next attempt),
// server error frames map onto the same error taxonomy as HTTP responses
// (statusErr).
func (m *HTTPMember) Ingest(b Batch) (IngestAck, error) {
	m.wireMu.Lock()
	defer m.wireMu.Unlock()
	if m.wireAddr == "" {
		if err := m.probeWireLocked(); err != nil {
			return IngestAck{}, err
		}
	}
	if m.wireCli == nil {
		cli, err := wire.Dial(m.wireAddr, m.client.Timeout)
		if err != nil {
			// The advertised listener is not answering: forget the address
			// so the retry probes again.
			addr := m.wireAddr
			m.wireAddr = ""
			return IngestAck{}, fmt.Errorf("%w: %s: wire dial %s: %v", ErrMemberDown, m.id, addr, err)
		}
		m.wireCli = cli
	}
	ack, err := m.wireCli.Ingest(b.Seq, b.Traceparent, b.Events)
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			if m.wireCli.Broken() {
				m.wireCli = nil
			}
			// An error frame's code stands for the HTTP status the member
			// mapped its shard error to; anything but 409 and 5xx is a
			// semantic rejection (400), terminal for the replicator — the
			// member has diverged from admission rules.
			status := http.StatusBadRequest
			switch re.Code {
			case wire.CodeBehindFrontier:
				status = http.StatusConflict
			case wire.CodeInternal:
				status = http.StatusInternalServerError
			}
			return IngestAck{}, m.statusErr(status, re.Msg)
		}
		// Transport failure: the client has retired the connection. The
		// member may have restarted onto another port, so the next
		// delivery attempt probes again before it redials.
		m.wireCli = nil
		m.wireAddr = ""
		return IngestAck{}, fmt.Errorf("%w: %s: wire: %v", ErrMemberDown, m.id, err)
	}
	return IngestAck{
		Ingested:   int(ack.Ingested),
		Watermark:  ack.Watermark,
		Detections: ack.Detections,
		Seq:        ack.Seq,
		Dup:        ack.Dup,
		Trace:      ack.Trace,
	}, nil
}

// probeWireLocked discovers the member's wire listener from its /healthz.
// An unreachable member yields ErrMemberDown and leaves the address
// unresolved, so a later delivery probes again — the member may just be
// restarting. A reachable member that advertises no "wirePort" cannot
// receive replication at all: that is a deployment error, terminal for
// the replicator.
func (m *HTTPMember) probeWireLocked() error {
	resp, err := m.client.Get(m.base + "/healthz")
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrMemberDown, m.id, err)
	}
	defer resp.Body.Close()
	var h struct {
		WirePort int `json:"wirePort"`
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s: GET /healthz: %s", ErrMemberDown, m.id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("%w: %s: decode /healthz: %v", ErrMemberDown, m.id, err)
	}
	u, err := url.Parse(m.base)
	if err != nil || u.Hostname() == "" {
		return fmt.Errorf("cluster: member %s: no host in base URL %q", m.id, m.base)
	}
	if h.WirePort <= 0 {
		return fmt.Errorf("cluster: member %s advertises no wirePort on /healthz: replication needs the binary wire listener (start the daemon with flowmotifd -member, or give it -wire-addr)", m.id)
	}
	m.wireAddr = net.JoinHostPort(u.Hostname(), strconv.Itoa(h.WirePort))
	return nil
}

// CloseWire closes the persistent wire connection (if any); a later
// delivery redials. An owner done with an HTTPMember calls it, as the
// coordinator never closes a member's connection.
func (m *HTTPMember) CloseWire() {
	m.wireMu.Lock()
	defer m.wireMu.Unlock()
	if m.wireCli != nil {
		_ = m.wireCli.Close()
		m.wireCli = nil
	}
}
