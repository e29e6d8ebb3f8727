package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// checkSweep is the sweep oracle: one SweepMatchesRange over phis must hand
// every threshold exactly the instance set a search of its own
// (CollectRange at that φ, same graph, same anchor range) reports.
func checkSweep(t testing.TB, g *temporal.Graph, mo *motif.Motif, p Params, phis []float64, lo, hi int64) {
	t.Helper()
	matches, err := CollectMatches(g, mo, p.Delta)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*Instance, len(phis))
	var mu sync.Mutex
	_, err = SweepMatchesRange(g, mo, matches, p, phis, lo, hi, func(in *Instance, admitted int) bool {
		if admitted < 1 || admitted > len(phis) {
			t.Errorf("admitted = %d with %d thresholds", admitted, len(phis))
			return false
		}
		mu.Lock()
		in = in.Clone() // borrowed
		for i := 0; i < admitted; i++ {
			got[i] = append(got[i], in)
		}
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		q := p
		q.Phi, q.Workers = phi, 0
		want, err := CollectRange(g, mo, q, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := keySetsEqual(instanceKeySet(got[i]), instanceKeySet(want)); !ok {
			t.Fatalf("motif %v δ=%d workers=%d prune=%v: threshold %d of %v (φ=%v): sweep != own search: %s",
				mo, p.Delta, p.Workers, !p.DisableAvailPrune, i, phis, phi, diff)
		}
	}
}

// rawFlowGraph is randomGraph with flows that do not sum exactly: a running
// prefix sum and a difference of global prefix sums over the same events
// then disagree in the last bits, which is what the sweep must not trip on.
func rawFlowGraph(seed int64, nodes, events, tmax int) *temporal.Graph {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]temporal.Event, events)
	for i := range evs {
		evs[i] = temporal.Event{
			From: temporal.NodeID(rng.Intn(nodes)),
			To:   temporal.NodeID(rng.Intn(nodes)),
			T:    int64(rng.Intn(tmax)),
			F:    0.1 + rng.ExpFloat64()*3,
		}
	}
	g, err := temporal.NewGraph(evs)
	if err != nil {
		panic(err)
	}
	return g
}

// occurringFlows returns the distinct edge-set flows of every instance at
// φ = 0, ascending — the thresholds at which some search's answer changes.
func occurringFlows(t testing.TB, g *temporal.Graph, mo *motif.Motif, delta int64) []float64 {
	t.Helper()
	ins, err := Collect(g, mo, Params{Delta: delta}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	var flows []float64
	for _, in := range ins {
		for _, f := range in.EdgeFlows {
			if !seen[f] {
				seen[f] = true
				flows = append(flows, f)
			}
		}
	}
	sort.Float64s(flows)
	return flows
}

// TestSweepEqualsPerPhiSearches runs the oracle over random shapes and
// raw-float graphs with thresholds drawn from the edge-set flows that occur
// (ties at the cut, and one ulp to either side of it), duplicate
// thresholds, φ = 0 and a single threshold, restricted and unrestricted
// anchor ranges, serial and sharded, with and without availability pruning.
func TestSweepEqualsPerPhiSearches(t *testing.T) {
	motifs := []*motif.Motif{
		motif.MustPath(0, 1),
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3),
		motif.MustPath(0, 1, 2, 3, 1),
	}
	instances := 0
	for seed := int64(0); seed < 12; seed++ {
		g := rawFlowGraph(seed+900, 6, 90, 80)
		rng := rand.New(rand.NewSource(seed))
		for _, mo := range motifs {
			delta := []int64{8, 25, 200}[rng.Intn(3)]
			flows := occurringFlows(t, g, mo, delta)
			if len(flows) == 0 {
				continue
			}
			instances += len(flows)
			var phis []float64
			if rng.Intn(2) == 0 {
				phis = append(phis, 0)
			}
			for i := 0; i < 1+rng.Intn(8); i++ {
				f := flows[rng.Intn(len(flows))]
				switch rng.Intn(4) {
				case 0:
					f = math.Nextafter(f, math.Inf(1))
				case 1:
					f = math.Nextafter(f, 0)
				case 2:
					phis = append(phis, f) // duplicate threshold
				}
				phis = append(phis, f)
			}
			sort.Float64s(phis)
			lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
			if rng.Intn(2) == 0 {
				lo, hi = 20, 55
			}
			for _, p := range []Params{
				{Delta: delta},
				{Delta: delta, Workers: 4},
				{Delta: delta, DisableAvailPrune: true},
			} {
				checkSweep(t, g, mo, p, phis, lo, hi)
				checkSweep(t, g, mo, p, phis[:1], lo, hi)
			}
		}
	}
	if instances == 0 {
		t.Fatal("degenerate test: no graph had an instance")
	}
}

// TestSweepRejectsBadThresholds pins the argument check.
func TestSweepRejectsBadThresholds(t *testing.T) {
	g := rawFlowGraph(1, 4, 20, 30)
	mo := motif.MustPath(0, 1, 2)
	for _, phis := range [][]float64{nil, {}, {2, 1}, {-1, 3}} {
		if _, err := SweepMatchesRange(g, mo, nil, Params{Delta: 5}, phis, 0, 10, nil); err == nil {
			t.Errorf("thresholds %v accepted", phis)
		}
	}
}

// FuzzSweepMatchesRange decodes a small event list and a threshold list
// from the input and runs the sweep oracle on them.
func FuzzSweepMatchesRange(f *testing.F) {
	f.Add([]byte{0, 1, 3, 9, 1, 2, 5, 40, 2, 0, 9, 7, 0, 1, 4, 200, 1, 2, 8, 3}, []byte{0, 9, 9, 40}, uint8(2), uint8(10))
	f.Add([]byte{0, 1, 1, 1, 0, 1, 2, 1, 0, 1, 3, 1}, []byte{1}, uint8(0), uint8(2))
	f.Add([]byte{3, 4, 60, 255, 4, 3, 61, 254, 3, 4, 62, 1}, []byte{}, uint8(1), uint8(63))
	shapes := []*motif.Motif{
		motif.MustPath(0, 1),
		motif.MustPath(0, 1, 0),
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
	}
	f.Fuzz(func(t *testing.T, raw, cuts []byte, shape, delta uint8) {
		if len(raw) > 4*48 {
			raw = raw[:4*48]
		}
		var evs []temporal.Event
		for ; len(raw) >= 4; raw = raw[4:] {
			evs = append(evs, temporal.Event{
				From: temporal.NodeID(raw[0] % 5),
				To:   temporal.NodeID(raw[1] % 5),
				T:    int64(raw[2] % 64),
				F:    0.1 + float64(raw[3])/7,
			})
		}
		if len(evs) == 0 {
			return
		}
		g, err := temporal.NewGraph(evs)
		if err != nil {
			return
		}
		mo := shapes[int(shape)%len(shapes)]
		d := int64(delta % 64)
		// A cut byte picks an occurring edge-set flow (odd: nudged one ulp
		// up) so that thresholds land where answers change.
		flows := occurringFlows(t, g, mo, d)
		phis := []float64{0}
		if len(cuts) > 8 {
			cuts = cuts[:8]
		}
		for _, c := range cuts {
			if len(flows) == 0 {
				break
			}
			phi := flows[int(c/2)%len(flows)]
			if c%2 == 1 {
				phi = math.Nextafter(phi, math.Inf(1))
			}
			phis = append(phis, phi)
		}
		sort.Float64s(phis)
		checkSweep(t, g, mo, Params{Delta: d}, phis[len(phis)/3:], 0, 63)
		checkSweep(t, g, mo, Params{Delta: d, Workers: 3}, phis, 10, 40)
	})
}

// TestSweepLendsInstances: Algorithm 1 lends its visitor the instance it
// reports — a warmed pass over a match list allocates nothing, however many
// instances it visits — and a Clone of the borrowed instance is what the
// owning entry points hand out: Collect's instances, in Collect's order.
func TestSweepLendsInstances(t *testing.T) {
	g := randomGraph(7, 4, 400, 200)
	mo := motif.MustPath(0, 1, 2, 0)
	p := Params{Delta: 20}
	matches, err := CollectMatches(g, mo, p.Delta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(g, mo, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Instance
	visited := 0
	e := newMatchEnum(g, mo, p, func(f float64) bool { return f >= p.Phi }, math.MinInt64, math.MaxInt64, func(in *Instance, _ float64) bool {
		if got != nil {
			got = append(got, in.Clone())
		}
		visited++
		return true
	})
	pass := func() {
		for i := range matches {
			e.run(&matches[i])
		}
	}
	got = []*Instance{}
	pass()
	if len(want) < 20 || !reflect.DeepEqual(got, want) {
		t.Fatalf("borrowed instances (%d) differ from Collect's (%d)", len(got), len(want))
	}
	got = nil
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Errorf("%v allocations per warmed pass visiting %d instances, want 0", n, len(want))
	}
	if visited != 12*len(want) {
		t.Fatalf("visited %d instances over 12 passes of %d", visited, len(want))
	}
}
