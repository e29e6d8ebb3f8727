// Package wire implements the length-prefixed binary batch protocol the
// flowmotif daemon serves next to its JSON API (DESIGN.md §16). A frame is
//
//	'F' 'M' version type  length(uint32 LE)   payload…   crc32(uint32 LE)
//
// where the CRC (IEEE) covers the payload only. Batch payloads carry the
// cluster idempotency/tracing trailer (seq + traceparent, compatible with
// cluster.Batch), a reserved zero, and a run of events encoded as
// varints: node ids (the client's raw temporal.NodeIDs), delta-encoded
// non-decreasing timestamps, and byte-reversed float bits for flow values
// (small mantissas ⇒ short varints).
//
// The Decoder recycles its payload and event buffers across frames, so the
// steady-state decode path performs zero per-event allocations (enforced
// by the flowvet noalloc annotation on Events).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"flowmotif/internal/temporal"
)

// Frame header: magic "FM", version byte, type byte, payload length.
const (
	magic0  = 'F'
	magic1  = 'M'
	Version = 1

	headerSize = 8 // magic(2) + version(1) + type(1) + length(4, LE)
	crcSize    = 4
)

// Frame types.
const (
	FrameBatch = 0x01 // client → server: event batch
	FrameAck   = 0x02 // server → client: ingest acknowledgement
	FrameError = 0x03 // server → client: typed rejection
)

// Ack payload flag bits.
const (
	ackFlagDup = 1 << 0 // duplicate seq: ack replays the recorded answer
)

// DefaultMaxFrameBytes bounds accepted payloads when the decoder's owner
// does not set a limit; it matches the HTTP API's default body cap.
const DefaultMaxFrameBytes = 32 << 20

// ErrorCode classifies server-side rejections carried by an error frame.
// Codes mirror the JSON API's status taxonomy so both transports expose
// the same contract.
type ErrorCode uint32

const (
	// CodeBadFrame: the frame violated the protocol grammar (bad magic,
	// version, CRC, or malformed payload). The server closes the
	// connection after sending it — framing is unrecoverable.
	CodeBadFrame ErrorCode = 1
	// CodeBehindFrontier: the batch was rejected by the engine's order
	// contract (HTTP 409 equivalent). The connection stays open.
	CodeBehindFrontier ErrorCode = 2
	// CodeFrameTooLarge: the declared payload length exceeds the server's
	// limit (HTTP 413 equivalent). Sent without reading the payload; the
	// server closes the connection.
	CodeFrameTooLarge ErrorCode = 3
	// CodeInternal: WAL poisoning, fail-stop, or another server-side
	// failure (HTTP 5xx equivalent). The connection stays open.
	CodeInternal ErrorCode = 4
	// CodeRejected: the batch was semantically invalid (bad node id,
	// non-finite flow, …) — HTTP 400 equivalent. Connection stays open.
	CodeRejected ErrorCode = 5
)

// Decode errors.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrChecksum      = errors.New("wire: frame checksum mismatch")
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrMalformed     = errors.New("wire: malformed frame payload")
	errNotBatch      = errors.New("wire: Events called without a pending batch frame")
)

// RemoteError is a server rejection decoded from an error frame.
type RemoteError struct {
	Code ErrorCode
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg)
}

// Ack is the binary equivalent of the JSON ingest acknowledgement: the
// same fields HTTPMember reads off a 200 response.
type Ack struct {
	Seq        int64
	Ingested   int64
	Watermark  int64
	Detections int64
	Dup        bool
	Trace      string
}

// appendUvarint, appendVarint: binary.AppendUvarint over a recycled
// buffer; amortized zero allocation once the buffer has grown.

// floatBits maps a float64 to its varint-friendly representation: byte
// reversal moves the exponent/short-mantissa bytes to the low end, so
// common flow values (small integers, few significant digits) encode in
// 2–4 bytes instead of 9.
func floatBits(f float64) uint64 { return bits.ReverseBytes64(math.Float64bits(f)) }

func floatFromBits(u uint64) float64 { return math.Float64frombits(bits.ReverseBytes64(u)) }

// Encoder builds batch frames into a recycled buffer. It keeps no
// per-connection state, so one Encoder may serve any connection. Not safe
// for concurrent use.
type Encoder struct {
	buf     []byte
	scratch []temporal.Event
}

// EncodeBatch builds a batch frame of raw temporal.NodeID varints, refusing
// a batch the receiving engine would refuse (temporal.ErrInvalidEvent).
// Events are sorted by timestamp (stable, the order every admitting layer
// uses) into an internal scratch slice when not already in order. The
// returned slice is valid until the next call.
func (e *Encoder) EncodeBatch(seq int64, traceparent string, evs []temporal.Event) ([]byte, error) {
	if err := temporal.CheckEvents(evs); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return e.encodeBatch(seq, traceparent, evs)
}

// encodeBatch is EncodeBatch without the validity check, so the codec's
// tests can round-trip any flow bits the decoder accepts.
func (e *Encoder) encodeBatch(seq int64, traceparent string, evs []temporal.Event) ([]byte, error) {
	evs = temporal.InTimeOrder(evs, &e.scratch)
	e.begin(FrameBatch)
	e.buf = binary.AppendUvarint(e.buf, 0) // flags: none defined
	if err := e.trailer(seq, traceparent); err != nil {
		return nil, err
	}
	e.buf = binary.AppendUvarint(e.buf, 0) // reserved: always 0
	e.buf = binary.AppendUvarint(e.buf, uint64(len(evs)))
	prev := int64(0)
	for i := range evs {
		ev := &evs[i]
		e.buf = binary.AppendUvarint(e.buf, uint64(ev.From))
		e.buf = binary.AppendUvarint(e.buf, uint64(ev.To))
		prev = e.putTime(i, ev.T, prev)
		e.buf = binary.AppendUvarint(e.buf, floatBits(ev.F))
	}
	return e.finish(), nil
}

// AppendAckFrame appends an encoded ack frame to dst.
func AppendAckFrame(dst []byte, a Ack) []byte {
	start, dst := beginFrame(dst, FrameAck)
	var flags uint64
	if a.Dup {
		flags |= ackFlagDup
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(a.Seq))
	dst = binary.AppendUvarint(dst, uint64(a.Ingested))
	dst = binary.AppendVarint(dst, a.Watermark)
	dst = binary.AppendUvarint(dst, uint64(a.Detections))
	dst = binary.AppendUvarint(dst, uint64(len(a.Trace)))
	dst = append(dst, a.Trace...)
	return finishFrame(dst, start)
}

// AppendErrorFrame appends an encoded error frame to dst.
func AppendErrorFrame(dst []byte, code ErrorCode, msg string) []byte {
	start, dst := beginFrame(dst, FrameError)
	dst = binary.AppendUvarint(dst, uint64(code))
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	dst = append(dst, msg...)
	return finishFrame(dst, start)
}

func (e *Encoder) begin(ftype byte) {
	_, e.buf = beginFrame(e.buf[:0], ftype)
}

func (e *Encoder) finish() []byte {
	e.buf = finishFrame(e.buf, 0)
	return e.buf
}

func (e *Encoder) trailer(seq int64, traceparent string) error {
	if seq < 0 {
		return fmt.Errorf("wire: negative batch seq %d", seq)
	}
	e.buf = binary.AppendUvarint(e.buf, uint64(seq))
	e.buf = binary.AppendUvarint(e.buf, uint64(len(traceparent)))
	e.buf = append(e.buf, traceparent...)
	return nil
}

// putTime appends event i's timestamp: the first as an absolute zigzag
// varint, the rest as non-negative deltas off the previous one (the
// encoder sorted the batch, so deltas never go negative).
func (e *Encoder) putTime(i int, t, prev int64) int64 {
	if i == 0 {
		e.buf = binary.AppendVarint(e.buf, t)
	} else {
		e.buf = binary.AppendUvarint(e.buf, uint64(t-prev))
	}
	return t
}

// beginFrame appends a frame header (length backfilled by finishFrame)
// and returns the header's offset in dst.
func beginFrame(dst []byte, ftype byte) (int, []byte) {
	start := len(dst)
	dst = append(dst, magic0, magic1, Version, ftype, 0, 0, 0, 0)
	return start, dst
}

// finishFrame backfills the payload length for the frame starting at
// start and appends the payload CRC.
func finishFrame(dst []byte, start int) []byte {
	payload := dst[start+headerSize:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	var crc [crcSize]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(dst, crc[:]...)
}

// Frame is one validated frame's preamble. For batch frames the seq,
// traceparent, and event count are parsed eagerly; the per-event run is
// decoded on demand by Events so callers can meter the stages separately.
type Frame struct {
	Type        byte
	Seq         int64
	Traceparent string
	Count       int // events in a batch frame
	PayloadLen  int
}

// Decoder reads frames off an io.Reader into recycled buffers. One
// Decoder serves one connection. Not safe for concurrent use.
type Decoder struct {
	// MaxFrame bounds accepted payload lengths; zero means
	// DefaultMaxFrameBytes. Oversized frames fail with ErrFrameTooLarge
	// before their payload is read.
	MaxFrame int

	r      io.Reader
	hdr    [headerSize + crcSize]byte
	buf    []byte
	events []temporal.Event

	// pending batch state set by Next, consumed by Events.
	ftype   byte
	payload []byte // alias of buf
	off     int    // offset of the event run (batch) / payload body (ack, error)
	count   int
}

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

func (d *Decoder) maxFrame() int {
	if d.MaxFrame > 0 {
		return d.MaxFrame
	}
	return DefaultMaxFrameBytes
}

// Next reads and validates one frame (magic, version, size limit, CRC)
// and parses its preamble. On ErrFrameTooLarge the payload has not been
// consumed and the connection cannot be resynced; the caller should
// close it. Batch event records are left for Events.
//
//flowmotif:hotpath
func (d *Decoder) Next() (Frame, error) {
	d.ftype = 0
	if _, err := io.ReadFull(d.r, d.hdr[:headerSize]); err != nil {
		return Frame{}, err
	}
	if d.hdr[0] != magic0 || d.hdr[1] != magic1 {
		return Frame{}, ErrBadMagic
	}
	if d.hdr[2] != Version {
		return Frame{}, ErrBadVersion
	}
	ftype := d.hdr[3]
	n := int(binary.LittleEndian.Uint32(d.hdr[4:]))
	if n > d.maxFrame() {
		return Frame{}, ErrFrameTooLarge
	}
	if cap(d.buf) < n+crcSize {
		d.buf = make([]byte, n+crcSize)
	}
	d.buf = d.buf[:n+crcSize]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	payload := d.buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(d.buf[n:]) {
		return Frame{}, ErrChecksum
	}
	d.payload = payload
	d.off = 0
	f := Frame{Type: ftype, PayloadLen: n}
	switch ftype {
	case FrameBatch:
		if err := d.parseBatchPreamble(&f); err != nil {
			return Frame{}, err
		}
		d.ftype = FrameBatch
	case FrameAck, FrameError:
		d.ftype = ftype
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame type 0x%02x", ErrMalformed, ftype)
	}
	return f, nil
}

// parseBatchPreamble parses flags, seq, traceparent, and the reserved
// field, and bounds-checks the event count against the remaining payload.
// No flag bit is defined, so any set bit (bit 0 marked the removed
// symbolic mode, whose label definitions filled the reserved field) is
// refused. It pre-grows the recycled event buffer so Events itself never
// allocates.
func (d *Decoder) parseBatchPreamble(f *Frame) error {
	flags, err := d.uvarint()
	if err != nil {
		return err
	}
	if flags != 0 {
		return fmt.Errorf("%w: unknown batch flags 0x%x", ErrMalformed, flags)
	}
	seq, err := d.uvarint()
	if err != nil {
		return err
	}
	if seq > math.MaxInt64 {
		return fmt.Errorf("%w: batch seq overflows int64", ErrMalformed)
	}
	f.Seq = int64(seq)
	tp, err := d.bytes()
	if err != nil {
		return err
	}
	f.Traceparent = string(tp)
	reserved, err := d.uvarint()
	if err != nil {
		return err
	}
	if reserved != 0 {
		return fmt.Errorf("%w: reserved batch field is %d, want 0", ErrMalformed, reserved)
	}
	count, err := d.uvarint()
	if err != nil {
		return err
	}
	// Every event is at least 4 bytes (one byte per varint field), so a
	// forged count cannot make us allocate beyond ~payload/4 entries.
	if count > uint64(len(d.payload)-d.off)/4 {
		return fmt.Errorf("%w: event count exceeds payload", ErrMalformed)
	}
	d.count = int(count)
	f.Count = d.count
	if cap(d.events) < d.count {
		d.events = make([]temporal.Event, d.count)
	}
	return nil
}

// Events decodes the pending batch frame's event run into the decoder's
// recycled buffer; the slice is valid until the next call to Next. The
// protocol guarantees non-decreasing timestamps (rejected otherwise), so
// the result is already in the engine's required ingest order.
//
//flowmotif:hotpath noalloc
func (d *Decoder) Events() ([]temporal.Event, error) {
	if d.ftype != FrameBatch {
		return nil, errNotBatch
	}
	evs := d.events[:d.count]
	p := d.payload
	off := d.off
	var prev int64
	for i := 0; i < d.count; i++ {
		from, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return nil, ErrMalformed
		}
		off += n
		to, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return nil, ErrMalformed
		}
		off += n
		var t int64
		if i == 0 {
			v, n := binary.Varint(p[off:])
			if n <= 0 {
				return nil, ErrMalformed
			}
			off += n
			t = v
		} else {
			dt, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return nil, ErrMalformed
			}
			off += n
			if dt > uint64(math.MaxInt64-prev) {
				return nil, ErrMalformed
			}
			t = prev + int64(dt)
		}
		prev = t
		fb, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return nil, ErrMalformed
		}
		off += n
		if from > math.MaxInt32 || to > math.MaxInt32 {
			return nil, ErrMalformed
		}
		ev := &evs[i]
		ev.From = temporal.NodeID(from)
		ev.To = temporal.NodeID(to)
		ev.T = t
		ev.F = floatFromBits(fb)
	}
	if off != len(p) {
		return nil, ErrMalformed
	}
	d.ftype = 0
	return evs, nil
}

// Ack parses the pending ack frame.
func (d *Decoder) Ack() (Ack, error) {
	if d.ftype != FrameAck {
		return Ack{}, fmt.Errorf("%w: Ack called without a pending ack frame", ErrMalformed)
	}
	d.ftype = 0
	var a Ack
	flags, err := d.uvarint()
	if err != nil {
		return Ack{}, err
	}
	a.Dup = flags&ackFlagDup != 0
	seq, err := d.uvarint()
	if err != nil || seq > math.MaxInt64 {
		return Ack{}, ErrMalformed
	}
	a.Seq = int64(seq)
	ing, err := d.uvarint()
	if err != nil || ing > math.MaxInt64 {
		return Ack{}, ErrMalformed
	}
	a.Ingested = int64(ing)
	w, err := d.varint()
	if err != nil {
		return Ack{}, err
	}
	a.Watermark = w
	det, err := d.uvarint()
	if err != nil || det > math.MaxInt64 {
		return Ack{}, ErrMalformed
	}
	a.Detections = int64(det)
	tr, err := d.bytes()
	if err != nil {
		return Ack{}, err
	}
	a.Trace = string(tr)
	if d.off != len(d.payload) {
		return Ack{}, ErrMalformed
	}
	return a, nil
}

// RemoteErr parses the pending error frame.
func (d *Decoder) RemoteErr() (*RemoteError, error) {
	if d.ftype != FrameError {
		return nil, fmt.Errorf("%w: RemoteErr called without a pending error frame", ErrMalformed)
	}
	d.ftype = 0
	code, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	msg, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if d.off != len(d.payload) {
		return nil, ErrMalformed
	}
	return &RemoteError{Code: ErrorCode(code), Msg: string(msg)}, nil
}

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.payload[d.off:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	d.off += n
	return v, nil
}

func (d *Decoder) varint() (int64, error) {
	v, n := binary.Varint(d.payload[d.off:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	d.off += n
	return v, nil
}

// bytes parses a length-prefixed byte run and returns a view into the
// recycled payload buffer (valid until the next Next call).
func (d *Decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.payload)-d.off) {
		return nil, fmt.Errorf("%w: byte run exceeds payload", ErrMalformed)
	}
	b := d.payload[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}
