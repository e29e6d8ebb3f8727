package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flowmotif/internal/temporal"
)

func decodeOne(t *testing.T, d *Decoder, frame []byte, r *bytes.Reader) (Frame, []temporal.Event) {
	t.Helper()
	r.Reset(frame)
	f, err := d.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Type != FrameBatch {
		t.Fatalf("frame type = %#x, want batch", f.Type)
	}
	evs, err := d.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	return f, evs
}

func randomEvents(rng *rand.Rand, n int) []temporal.Event {
	evs := make([]temporal.Event, n)
	t := rng.Int63n(1 << 40)
	for i := range evs {
		t += rng.Int63n(100)
		evs[i] = temporal.Event{
			From: temporal.NodeID(rng.Intn(1 << 20)),
			To:   temporal.NodeID(rng.Intn(1 << 20)),
			T:    t,
			F:    float64(rng.Intn(1000)) + 0.25,
		}
	}
	return evs
}

// goldenNumericFrame is EncodeBatch(7, "", [{1→2, t=100, f=3.5},
// {2→3, t=140, f=1}]) byte for byte: header (magic, Version 1, batch
// type, payload length 17), flags 0, seq 7, empty traceparent, the
// reserved definition count 0, two events, CRC. Pinning it keeps numeric
// frames byte-identical across releases that share wire.Version.
var goldenNumericFrame = []byte{
	0x46, 0x4d, 0x01, 0x01, 0x11, 0x00, 0x00, 0x00,
	0x00, 0x07, 0x00, 0x00, 0x02,
	0x01, 0x02, 0xc8, 0x01, 0xc0, 0x18,
	0x02, 0x03, 0x28, 0xbf, 0xe0, 0x03,
	0xd4, 0xc1, 0x9c, 0xa3,
}

// symbolicV1Frame is a v1 batch with flag bit 0 set and two label
// definitions ("a", "b") for one event a→b at t=1, f=1: the bytes the
// protocol's removed symbolic mode produced. Decoders refuse it.
var symbolicV1Frame = []byte{
	0x46, 0x4d, 0x01, 0x01, 0x0f, 0x00, 0x00, 0x00,
	0x01, 0x01, 0x00, 0x02, 0x01, 0x61, 0x01, 0x62,
	0x01, 0x00, 0x01, 0x02, 0xbf, 0xe0, 0x03,
	0x19, 0x55, 0x69, 0x5d,
}

func TestNumericFrameGolden(t *testing.T) {
	want := []temporal.Event{{From: 1, To: 2, T: 100, F: 3.5}, {From: 2, To: 3, T: 140, F: 1}}
	var enc Encoder
	frame, err := enc.EncodeBatch(7, "", want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(frame, goldenNumericFrame) {
		t.Fatalf("EncodeBatch = % x\nwant          % x", frame, goldenNumericFrame)
	}
	r := bytes.NewReader(nil)
	f, got := decodeOne(t, NewDecoder(r), goldenNumericFrame, r)
	if f.Seq != 7 || f.Traceparent != "" || f.Count != 2 {
		t.Fatalf("preamble = %+v, want seq 7, no traceparent, 2 events", f)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

func TestNumericRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var enc Encoder
	r := bytes.NewReader(nil)
	dec := NewDecoder(r)
	for trial := 0; trial < 20; trial++ {
		want := randomEvents(rng, rng.Intn(200))
		frame, err := enc.EncodeBatch(int64(trial+1), "00-abc-def-01", want)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		f, got := decodeOne(t, dec, frame, r)
		if f.Seq != int64(trial+1) || f.Traceparent != "00-abc-def-01" {
			t.Fatalf("trailer mismatch: seq=%d tp=%q", f.Seq, f.Traceparent)
		}
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func TestEncodeSortsUnorderedBatch(t *testing.T) {
	in := []temporal.Event{
		{From: 1, To: 2, T: 50, F: 1},
		{From: 3, To: 4, T: 10, F: 2},
		{From: 5, To: 6, T: 50, F: 3}, // equal-T: stable order after the first T=50
	}
	want := make([]temporal.Event, len(in))
	copy(want, in)
	sort.SliceStable(want, func(i, j int) bool { return want[i].T < want[j].T })
	var enc Encoder
	frame, err := enc.EncodeBatch(0, "", in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	r := bytes.NewReader(nil)
	dec := NewDecoder(r)
	_, got := decodeOne(t, dec, frame, r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v (stable sort expected)", i, got[i], want[i])
		}
	}
	if in[0].T != 50 {
		t.Fatalf("input batch mutated by encoder")
	}
}

func TestAckAndErrorFrames(t *testing.T) {
	ack := Ack{Seq: 42, Ingested: 512, Watermark: -7, Detections: 3, Dup: true, Trace: "0af7651916cd43dd8448eb211c80319c"}
	frame := AppendAckFrame(nil, ack)
	r := bytes.NewReader(frame)
	dec := NewDecoder(r)
	f, err := dec.Next()
	if err != nil || f.Type != FrameAck {
		t.Fatalf("Next: %v type=%#x", err, f.Type)
	}
	got, err := dec.Ack()
	if err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if got != ack {
		t.Fatalf("ack = %+v, want %+v", got, ack)
	}

	frame = AppendErrorFrame(nil, CodeBehindFrontier, "behind frontier")
	r.Reset(frame)
	f, err = dec.Next()
	if err != nil || f.Type != FrameError {
		t.Fatalf("Next: %v type=%#x", err, f.Type)
	}
	re, err := dec.RemoteErr()
	if err != nil {
		t.Fatalf("RemoteErr: %v", err)
	}
	if re.Code != CodeBehindFrontier || re.Msg != "behind frontier" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestDecodeRejections(t *testing.T) {
	var enc Encoder
	good, err := enc.EncodeBatch(1, "tp", randomEvents(rand.New(rand.NewSource(1)), 16))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	// remut edits the golden frame's payload and recomputes its CRC.
	remut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), goldenNumericFrame[:len(goldenNumericFrame)-crcSize]...)
		f(b)
		return finishFrame(b, 0)
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", mut(func(b []byte) { b[2] = 99 }), ErrBadVersion},
		{"payload bit flip", mut(func(b []byte) { b[headerSize+3] ^= 0x40 }), ErrChecksum},
		{"crc bit flip", mut(func(b []byte) { b[len(b)-1] ^= 1 }), ErrChecksum},
		{"unknown type", mut(func(b []byte) { b[3] = 0x7f }), ErrMalformed},
		{"unknown flag", remut(func(b []byte) { b[headerSize] = 0x02 }), ErrMalformed},
		{"reserved count set", remut(func(b []byte) { b[headerSize+3] = 0x01 }), ErrMalformed},
	}
	for _, tc := range cases {
		r := bytes.NewReader(tc.frame)
		dec := NewDecoder(r)
		_, err := dec.Next()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := dec.Events(); err == nil {
			t.Errorf("%s: Events succeeded after rejected frame", tc.name)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 7 {
			r := bytes.NewReader(good[:cut])
			dec := NewDecoder(r)
			if _, err := dec.Next(); err == nil {
				t.Fatalf("truncated at %d bytes accepted", cut)
			}
		}
	})

	t.Run("oversized", func(t *testing.T) {
		r := bytes.NewReader(good)
		dec := NewDecoder(r)
		dec.MaxFrame = 8
		if _, err := dec.Next(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})

	t.Run("symbolic v1 frame", func(t *testing.T) {
		dec := NewDecoder(bytes.NewReader(symbolicV1Frame))
		if _, err := dec.Next(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	})
}

func TestNegativeNodeIDRejectedAtEncode(t *testing.T) {
	var enc Encoder
	if _, err := enc.EncodeBatch(0, "", []temporal.Event{{From: -1, To: 2, T: 1, F: 1}}); !errors.Is(err, temporal.ErrInvalidEvent) {
		t.Fatalf("negative node id: %v, want ErrInvalidEvent", err)
	}
	if _, err := enc.EncodeBatch(-1, "", nil); err == nil {
		t.Fatal("negative seq accepted")
	}
}

// TestExtremeValuesRoundTrip checks the codec carries extreme bits
// exactly, +Inf and -0 flows included (the decoder passes them on to the
// admitting layer), through the unchecked encoder; EncodeBatch refuses
// those two before sending.
func TestExtremeValuesRoundTrip(t *testing.T) {
	want := []temporal.Event{
		{From: 0, To: math.MaxInt32, T: math.MinInt64 / 2, F: math.Inf(1)},
		{From: math.MaxInt32, To: 0, T: 0, F: math.Copysign(0, -1)},
		{From: 1, To: 1, T: math.MaxInt64/2 - 1, F: math.SmallestNonzeroFloat64},
	}
	var enc Encoder
	for _, ev := range want[:2] {
		if _, err := enc.EncodeBatch(1, "", []temporal.Event{ev}); !errors.Is(err, temporal.ErrInvalidEvent) {
			t.Fatalf("EncodeBatch(f=%v): %v, want ErrInvalidEvent", ev.F, err)
		}
	}
	frame, err := enc.encodeBatch(math.MaxInt64, "", want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	r := bytes.NewReader(nil)
	dec := NewDecoder(r)
	f, got := decodeOne(t, dec, frame, r)
	if f.Seq != math.MaxInt64 {
		t.Fatalf("seq = %d", f.Seq)
	}
	for i := range want {
		if math.Float64bits(got[i].F) != math.Float64bits(want[i].F) || got[i].T != want[i].T ||
			got[i].From != want[i].From || got[i].To != want[i].To {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDecodeSteadyStateZeroAlloc is the alloc contract the noalloc flowvet
// annotation encodes: once the decoder's buffers have grown, decoding a
// numeric frame (Next + Events) allocates nothing.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	var enc Encoder
	frame, err := enc.EncodeBatch(1, "", randomEvents(rand.New(rand.NewSource(3)), 512))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	r := bytes.NewReader(frame)
	dec := NewDecoder(r)
	decode := func() {
		r.Reset(frame)
		if _, err := dec.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
		if _, err := dec.Events(); err != nil {
			t.Fatalf("Events: %v", err)
		}
	}
	decode() // warm the recycled buffers
	if avg := testing.AllocsPerRun(50, decode); avg != 0 {
		t.Fatalf("steady-state decode allocates %.1f objects per frame, want 0", avg)
	}
}

// BenchmarkDecodeEvents measures the steady-state binary decode path and
// asserts the zero-allocs/op contract from the issue's acceptance
// criteria before timing.
func BenchmarkDecodeEvents(b *testing.B) {
	var enc Encoder
	events := randomEvents(rand.New(rand.NewSource(3)), 512)
	frame, err := enc.EncodeBatch(1, "", events)
	if err != nil {
		b.Fatalf("encode: %v", err)
	}
	frame = append([]byte(nil), frame...)
	r := bytes.NewReader(frame)
	dec := NewDecoder(r)
	decode := func() {
		r.Reset(frame)
		if _, err := dec.Next(); err != nil {
			b.Fatalf("Next: %v", err)
		}
		if _, err := dec.Events(); err != nil {
			b.Fatalf("Events: %v", err)
		}
	}
	decode()
	if avg := testing.AllocsPerRun(50, decode); avg != 0 {
		b.Fatalf("steady-state decode allocates %.1f objects per frame, want 0", avg)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}
