package obs

import "testing"

// FuzzParseTraceparent checks the W3C traceparent parser: no panics on
// arbitrary input, a zero context on every rejection, and render→parse
// round-tripping on every acceptance.
func FuzzParseTraceparent(f *testing.F) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const span = "00f067aa0ba902b7"
	for _, seed := range []string{
		"00-" + trace + "-" + span + "-01",
		"01-" + trace + "-" + span + "-01-extra",
		"",
		"00",
		"00-" + trace + "-" + span,
		"00-" + trace + "-" + span + "-",
		"ff-" + trace + "-" + span + "-01",
		"0x-" + trace + "-" + span + "-01",
		"00-" + trace + "-" + span + "-01-extra",
		"00-00000000000000000000000000000000-" + span + "-01",
		"00-" + trace + "-0000000000000000-01",
		"00-" + trace[:31] + "Z-" + span + "-01",
		"00_" + trace + "-" + span + "-01",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned non-zero context %+v", s, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q but context invalid: %+v", s, sc)
		}
		rendered := sc.Traceparent()
		rt, ok2 := ParseTraceparent(rendered)
		if !ok2 || rt != sc {
			t.Fatalf("round trip failed: %q → %+v → %q → %+v (ok=%v)", s, sc, rendered, rt, ok2)
		}
	})
}
