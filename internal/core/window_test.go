package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// semanticKey renders an instance as a graph-independent string: bound
// nodes plus, per motif edge, the (t, f) events of its edge-set. Two
// instances over different Graph values (e.g. a band sub-graph) compare
// equal iff they denote the same instance.
func semanticKey(g *temporal.Graph, in *Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N%v", in.Nodes)
	for i, a := range in.Arcs {
		s := g.Series(a)[in.Spans[i].Start:in.Spans[i].End]
		fmt.Fprintf(&b, "|e%d", i)
		for _, p := range s {
			fmt.Fprintf(&b, ";%d:%g", p.T, p.F)
		}
	}
	return b.String()
}

func collectKeys(t *testing.T, g *temporal.Graph, mo *motif.Motif, p Params, lo, hi int64) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	ins, err := CollectRange(g, mo, p, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		k := semanticKey(g, in)
		if out[k] {
			t.Fatalf("duplicate instance %s in band [%d,%d]", k, lo, hi)
		}
		out[k] = true
	}
	return out
}

func rangeTestGraph(t *testing.T) *temporal.Graph {
	t.Helper()
	evs, err := gen.Bitcoin(gen.BitcoinConfig{
		Nodes: 250, SeedTxns: 1200, Duration: 40000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEnumerateRangePartition checks that a partition of the time axis into
// anchor bands reproduces exactly the full enumeration, band by band, both
// over the full graph and over band sub-graphs holding only the events of
// (lo-δ, hi+δ] — the property the streaming engine is built on.
func TestEnumerateRangePartition(t *testing.T) {
	g := rangeTestGraph(t)
	minT, maxT := g.TimeSpan()
	events := g.Events()

	motifs := []*motif.Motif{
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3, 1),
	}
	for _, mo := range motifs {
		for _, p := range []Params{
			{Delta: 400, Phi: 0},
			{Delta: 900, Phi: 8},
		} {
			t.Run(fmt.Sprintf("%s/d%d_phi%g", mo.Name(), p.Delta, p.Phi), func(t *testing.T) {
				full := map[string]bool{}
				ins, err := Collect(g, mo, p, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range ins {
					full[semanticKey(g, in)] = true
				}

				// Uneven band boundaries, including degenerate short bands.
				cuts := []int64{minT - 1, minT + 50, minT + 51, (minT + maxT) / 2, maxT - p.Delta, maxT}
				sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

				gotFull := map[string]bool{}
				gotSub := map[string]bool{}
				for i := 1; i < len(cuts); i++ {
					lo, hi := cuts[i-1]+1, cuts[i]
					for k := range collectKeys(t, g, mo, p, lo, hi) {
						if gotFull[k] {
							t.Fatalf("instance %s emitted by two bands", k)
						}
						gotFull[k] = true
					}

					// Band sub-graph: only events of (lo-δ-1, hi+δ].
					var kept []temporal.Event
					for _, e := range events {
						if e.T >= lo-p.Delta && e.T <= hi+p.Delta {
							kept = append(kept, e)
						}
					}
					sub, err := temporal.NewGraphWithNodes(g.NumNodes(), kept)
					if err != nil {
						t.Fatal(err)
					}
					for k := range collectKeys(t, sub, mo, p, lo, hi) {
						if gotSub[k] {
							t.Fatalf("instance %s emitted by two sub-graph bands", k)
						}
						gotSub[k] = true
					}
				}

				diffSets(t, "full-graph bands", full, gotFull)
				diffSets(t, "sub-graph bands", full, gotSub)
			})
		}
	}
}

func diffSets(t *testing.T, label string, want, got map[string]bool) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing instance %s", label, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: spurious instance %s", label, k)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: %d instances, want %d", label, len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: batch enumeration found no instances")
	}
}

// TestEnumerateRangeFullRange checks the unrestricted range reproduces
// Enumerate exactly, including stats, and that parallel range enumeration
// agrees with serial.
func TestEnumerateRangeFullRange(t *testing.T) {
	g := rangeTestGraph(t)
	mo := motif.MustPath(0, 1, 2, 0)
	p := Params{Delta: 600, Phi: 2}

	base, err := Collect(g, mo, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, in := range base {
		want[semanticKey(g, in)] = true
	}

	got := collectKeys(t, g, mo, p, math.MinInt64, math.MaxInt64)
	diffSets(t, "full int64 range", want, got)

	pp := p
	pp.Workers = 4
	diffSets(t, "parallel full range", want, collectParallelKeys(t, g, mo, pp))
}

func collectParallelKeys(t *testing.T, g *temporal.Graph, mo *motif.Motif, p Params) map[string]bool {
	t.Helper()
	var (
		keys = map[string]bool{}
		ch   = make(chan string, 1024)
		done = make(chan struct{})
	)
	go func() {
		for k := range ch {
			keys[k] = true
		}
		close(done)
	}()
	_, err := EnumerateRange(g, mo, p, math.MinInt64, math.MaxInt64, func(in *Instance) bool {
		ch <- semanticKey(g, in)
		return true
	})
	close(ch)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestWindowArithmeticSaturates: anchor+δ saturates instead of wrapping, so
// a triangle sitting at either end of the int64 timeline is found like the
// same triangle anywhere else — by the enumerator (serial and sharded),
// top-k and the DP module.
func TestWindowArithmeticSaturates(t *testing.T) {
	mo := motif.MustPath(0, 1, 2, 0)
	for _, base := range []int64{1000, math.MaxInt64 - 8, math.MinInt64} {
		g, err := temporal.NewGraph([]temporal.Event{
			{From: 0, To: 1, T: base, F: 2},
			{From: 1, To: 2, T: base + 2, F: 3},
			{From: 2, To: 0, T: base + 4, F: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			n, _, err := Count(g, mo, Params{Delta: 10, Phi: 1, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Errorf("base %d workers %d: Count = %d, want 1", base, workers, n)
			}
		}
		if ins, err := CollectRange(g, mo, Params{Delta: 10}, base, base); err != nil || len(ins) != 1 {
			t.Errorf("base %d: CollectRange over the anchor = %d instances (err %v), want 1", base, len(ins), err)
		}
		if top, _, err := TopK(g, mo, 10, 1, 1); err != nil || len(top) != 1 || top[0].Flow != 2 {
			t.Errorf("base %d: TopK = %v (err %v), want the flow-2 triangle", base, top, err)
		}
		if flow, _, err := TopOneDPFast(g, mo, 10); err != nil || flow != 2 {
			t.Errorf("base %d: TopOneDPFast = %v (err %v), want 2", base, flow, err)
		}
	}
}

// TestMaximalityIsDeltaRelative is the counter-example that rules out
// answering a small-δ subscription from a large-δ enumeration filtered
// down: an instance maximal at δ=300 is a proper sub-instance of the one
// the same events form at δ=900, whose window the skip rule then drops, so
// the δ=900 enumeration does not contain it.
func TestMaximalityIsDeltaRelative(t *testing.T) {
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 0, F: 1},
		{From: 0, To: 1, T: 400, F: 1},
		{From: 1, To: 2, T: 500, F: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := motif.MustPath(0, 1, 2)
	full := int64(math.MaxInt64)
	small := collectKeys(t, g, mo, Params{Delta: 300}, math.MinInt64, full)
	large := collectKeys(t, g, mo, Params{Delta: 900}, math.MinInt64, full)
	const atSmall, atLarge = "N[0 1 2]|e0;400:1|e1;500:1", "N[0 1 2]|e0;0:1;400:1|e1;500:1"
	if len(small) != 1 || !small[atSmall] {
		t.Fatalf("δ=300 instances = %v, want only %s", small, atSmall)
	}
	if len(large) != 1 || !large[atLarge] {
		t.Fatalf("δ=900 instances = %v, want only %s", large, atLarge)
	}
}
