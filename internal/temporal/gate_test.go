package temporal

import (
	"errors"
	"math"
	"testing"
)

// TestGateAdmits pins the gate's frontier: an open gate admits any valid
// batch, Admit alone never moves the frontier, a batch reaching behind it
// is refused whole with ErrBehindFrontier, an invalid event with
// ErrInvalidEvent, and after a flush at W with largest δ d the first
// admissible timestamp is W + d + 1.
func TestGateAdmits(t *testing.T) {
	g := OpenGate()
	if g.Next() != math.MinInt64 {
		t.Fatalf("open gate: Next = %d, want MinInt64", g.Next())
	}
	in := []Event{{From: 0, To: 1, T: 20, F: 1}, {From: 1, To: 2, T: 10, F: 1}}
	batch, err := g.Admit(in, nil)
	if err != nil || batch[0].T != 10 || batch[1].T != 20 {
		t.Fatalf("open gate: Admit = %v, %v, want the batch in time order", batch, err)
	}
	if g.Next() != math.MinInt64 {
		t.Fatal("Admit moved the frontier")
	}
	g.Advance(20)
	g.Advance(15) // behind: no effect
	if g.Next() != 20 {
		t.Fatalf("after Advance(20), Advance(15): Next = %d, want 20", g.Next())
	}
	if _, err := g.Admit([]Event{{From: 0, To: 1, T: 20, F: 1}}, nil); err != nil {
		t.Fatalf("a batch at the frontier: %v", err)
	}
	if _, err := g.Admit([]Event{{From: 0, To: 1, T: 30, F: 1}, {From: 0, To: 1, T: 19, F: 1}}, nil); !errors.Is(err, ErrBehindFrontier) {
		t.Fatalf("a batch reaching behind the frontier: %v, want ErrBehindFrontier", err)
	}
	if _, err := g.Admit([]Event{{From: 0, To: 1, T: 30, F: 1}, {From: 0, To: 1, T: 30, F: math.NaN()}}, nil); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("a batch holding a NaN flow: %v, want ErrInvalidEvent", err)
	}

	g.Flushed(100, 7)
	if _, err := g.Admit([]Event{{From: 0, To: 1, T: 107, F: 1}}, nil); !errors.Is(err, ErrBehindFrontier) {
		t.Fatalf("t = W+δ after a flush: %v, want ErrBehindFrontier", err)
	}
	if _, err := g.Admit([]Event{{From: 0, To: 1, T: 108, F: 1}}, nil); err != nil {
		t.Fatalf("t = W+δ+1 after a flush: %v", err)
	}
	g.Flushed(50, 7) // an older flush never moves the frontier back
	if g.Next() != 108 {
		t.Fatalf("Next = %d, want 108", g.Next())
	}
	r := OpenGate()
	if r.Advance(g.Next()); r != g {
		t.Fatalf("an open gate advanced to Next() = %+v, want %+v", r, g)
	}
	g.Flushed(math.MaxInt64-1, math.MaxInt64)
	if g.Next() != math.MaxInt64 {
		t.Fatalf("a flush near the int64 edge: Next = %d, want MaxInt64 (saturated)", g.Next())
	}
}
