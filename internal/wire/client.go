package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"flowmotif/internal/temporal"
)

// DefaultCallTimeout bounds one Ingest round trip (write frame + read
// ack) when the caller does not choose a timeout; it matches the HTTP
// member transport's client timeout.
const DefaultCallTimeout = 30 * time.Second

// Client is a persistent-connection client for the binary batch
// protocol. One Client owns one connection and its encoder/decoder
// buffers; the caller must not invoke Ingest concurrently (the cluster
// replicator is a single goroutine per member, and HTTPMember guards its
// client with a mutex).
//
// Any transport error leaves the connection in an unusable state: the
// Client closes it and every later call fails. Callers should discard
// the Client and redial.
type Client struct {
	conn    net.Conn
	dec     *Decoder
	enc     Encoder
	timeout time.Duration
	broken  bool
}

// Dial connects to a wire listener. A non-positive timeout selects
// DefaultCallTimeout for both the dial and each call.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, timeout), nil
}

// NewClient wraps an established connection. Ownership of conn passes to
// the Client.
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	return &Client{
		conn:    conn,
		dec:     NewDecoder(bufio.NewReaderSize(conn, 1<<16)),
		timeout: timeout,
	}
}

// Ingest sends one batch and waits for the acknowledgement.
// A *RemoteError return means the server rejected the batch but the
// connection remains usable; any other error breaks the connection.
func (c *Client) Ingest(seq int64, traceparent string, evs []temporal.Event) (Ack, error) {
	frame, err := c.enc.EncodeBatch(seq, traceparent, evs)
	if err != nil {
		return Ack{}, err
	}
	return c.roundTrip(frame)
}

func (c *Client) roundTrip(frame []byte) (Ack, error) {
	if c.broken {
		return Ack{}, fmt.Errorf("wire: connection already failed")
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return Ack{}, c.fail(err)
	}
	if _, err := c.conn.Write(frame); err != nil {
		return Ack{}, c.fail(err)
	}
	f, err := c.dec.Next()
	if err != nil {
		return Ack{}, c.fail(err)
	}
	switch f.Type {
	case FrameAck:
		ack, err := c.dec.Ack()
		if err != nil {
			return Ack{}, c.fail(err)
		}
		return ack, nil
	case FrameError:
		re, err := c.dec.RemoteErr()
		if err != nil {
			return Ack{}, c.fail(err)
		}
		// Framing-level rejections are followed by a server-side close;
		// semantic rejections leave the connection usable.
		if re.Code == CodeBadFrame || re.Code == CodeFrameTooLarge {
			_ = c.fail(re)
		}
		return Ack{}, re
	default:
		return Ack{}, c.fail(fmt.Errorf("wire: unexpected frame type 0x%02x in response", f.Type))
	}
}

// fail marks the connection broken, closes it, and passes err through.
func (c *Client) fail(err error) error {
	if !c.broken {
		c.broken = true
		_ = c.conn.Close()
	}
	return err
}

// Broken reports whether a transport error has retired the connection.
func (c *Client) Broken() bool { return c.broken }

// Close tears down the connection.
func (c *Client) Close() error {
	c.broken = true
	return c.conn.Close()
}
