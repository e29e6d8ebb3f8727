package wire

import (
	"bytes"
	"math"
	"testing"

	"flowmotif/internal/temporal"
)

// FuzzDecodeFrame drives arbitrary byte images through the frame decoder.
// Invariants: no panic; no over-read (the bounded reader errors instead);
// a rejected frame yields zero events (Events fails after a failed Next);
// and any accepted batch survives an encode→decode round trip bit-exactly.
func FuzzDecodeFrame(f *testing.F) {
	// Seeds from real encoder output (numeric, the pinned golden frame,
	// ack, and error frames) plus a v1 symbolic-mode frame, which the
	// decoder refuses.
	var enc Encoder
	numeric, _ := enc.EncodeBatch(7, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		[]temporal.Event{
			{From: 1, To: 2, T: 100, F: 3.5},
			{From: 2, To: 3, T: 140, F: 1},
			{From: 1, To: 3, T: 140, F: 0.125},
		})
	f.Add(append([]byte(nil), numeric...))
	f.Add(append([]byte(nil), goldenNumericFrame...))
	f.Add(append([]byte(nil), symbolicV1Frame...))
	f.Add(AppendAckFrame(nil, Ack{Seq: 9, Ingested: 3, Watermark: 140, Detections: 1, Trace: "abc"}))
	f.Add(AppendErrorFrame(nil, CodeBehindFrontier, "behind frontier"))

	// Truncations, bit flips, and varint abuse.
	f.Add(append([]byte(nil), numeric[:headerSize+2]...))
	f.Add(append([]byte(nil), numeric[:len(numeric)-1]...))
	flipped := append([]byte(nil), numeric...)
	flipped[headerSize+1] ^= 0x80
	f.Add(flipped)
	// Oversized varint image: ten 0x80 continuation bytes where the event
	// count should be.
	f.Add([]byte{'F', 'M', Version, FrameBatch, 12, 0, 0, 0,
		0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0, 0, 0, 0, 0})
	// Huge declared length with no payload behind it.
	f.Add([]byte{'F', 'M', Version, FrameBatch, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		dec.MaxFrame = 1 << 20
		// Decode every frame in the image (persistent connections carry
		// several per stream).
		for {
			fr, err := dec.Next()
			if err != nil {
				// Reject ⇒ zero events applied: the decoder must not hand
				// out an event slice for a frame that failed validation.
				if _, err := dec.Events(); err == nil {
					t.Fatal("Events succeeded after Next rejected the frame")
				}
				return
			}
			switch fr.Type {
			case FrameBatch:
				evs, err := dec.Events()
				if err != nil {
					return
				}
				if len(evs) != fr.Count {
					t.Fatalf("decoded %d events, preamble declared %d", len(evs), fr.Count)
				}
				checkRoundTrip(t, fr, evs)
			case FrameAck:
				if _, err := dec.Ack(); err != nil {
					return
				}
			case FrameError:
				if _, err := dec.RemoteErr(); err != nil {
					return
				}
			}
		}
	})
}

// checkRoundTrip re-encodes an accepted batch and checks the decode is
// bit-exact (floats compared by bits: NaN payloads must survive).
func checkRoundTrip(t *testing.T, fr Frame, evs []temporal.Event) {
	t.Helper()
	var enc Encoder
	frame, err := enc.encodeBatch(fr.Seq, fr.Traceparent, evs)
	if err != nil {
		t.Fatalf("re-encoding accepted batch: %v", err)
	}
	dec := NewDecoder(bytes.NewReader(frame))
	fr2, err := dec.Next()
	if err != nil {
		t.Fatalf("round-trip Next: %v", err)
	}
	if fr2.Seq != fr.Seq || fr2.Traceparent != fr.Traceparent {
		t.Fatalf("round-trip trailer: seq %d/%d tp %q/%q", fr2.Seq, fr.Seq, fr2.Traceparent, fr.Traceparent)
	}
	got, err := dec.Events()
	if err != nil {
		t.Fatalf("round-trip Events: %v", err)
	}
	if len(got) != len(evs) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].From != evs[i].From || got[i].To != evs[i].To || got[i].T != evs[i].T ||
			math.Float64bits(got[i].F) != math.Float64bits(evs[i].F) {
			t.Fatalf("round-trip event %d: %+v != %+v", i, got[i], evs[i])
		}
	}
}
