package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// TestFusedSourceSubsetOfMatches verifies the two defining properties of
// the temporally pruned P1 walk: (a) it emits a subset of the pure
// structural matches, and (b) every match it drops admits no instance
// under the given δ (so enumeration results are unchanged).
func TestFusedSourceSubsetOfMatches(t *testing.T) {
	motifs := []*motif.Motif{
		motif.MustPath(0, 1, 2),
		motif.MustPath(0, 1, 2, 0),
		motif.MustPath(0, 1, 2, 3),
		motif.MustPath(0, 1, 2, 3, 1),
	}
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed+500, 6, 60, 50)
		for _, mo := range motifs {
			for _, delta := range []int64{5, 20, 100} {
				all := map[string]bool{}
				match.Stream(g, mo, func(m *match.Match) bool {
					all[fmt.Sprint(m.Arcs)] = true
					return true
				})
				var fusedKeys []string
				fullWalk(g, mo, delta)(func(m *match.Match) bool {
					fusedKeys = append(fusedKeys, fmt.Sprint(m.Arcs))
					return true
				})
				seen := map[string]bool{}
				for _, k := range fusedKeys {
					if !all[k] {
						t.Fatalf("seed=%d motif=%v δ=%d: fused emitted non-structural match %s", seed, mo, delta, k)
					}
					if seen[k] {
						t.Fatalf("seed=%d motif=%v δ=%d: fused emitted duplicate %s", seed, mo, delta, k)
					}
					seen[k] = true
				}
				// Dropped matches must admit no instance: enumerate them
				// via the instrumented slice mode and expect zero.
				var dropped []match.Match
				match.Stream(g, mo, func(m *match.Match) bool {
					if !seen[fmt.Sprint(m.Arcs)] {
						dropped = append(dropped, m.Clone())
					}
					return true
				})
				st, err := EnumerateMatches(g, mo, dropped, Params{Delta: delta, Phi: 0}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.Instances != 0 {
					t.Errorf("seed=%d motif=%v δ=%d: %d instances found in fused-dropped matches",
						seed, mo, delta, st.Instances)
				}
			}
		}
	}
}

// TestFusedAnchorRestoration exercises the sibling-restore logic of the
// anchored-chain state: graphs where one child branch must advance the
// anchor far while a later sibling still matches from an early anchor.
func TestFusedAnchorRestoration(t *testing.T) {
	// Node 0 fans out to 1; from 1, branch A (node 2) only matches very
	// late events, branch B (node 3) matches early ones. Exploring A first
	// advances the anchor; B must still be found.
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 1},
		{From: 0, To: 1, T: 1000, F: 1},
		{From: 1, To: 2, T: 1005, F: 1}, // only reachable from the late anchor
		{From: 1, To: 3, T: 12, F: 1},   // only reachable from the early anchor
	})
	if err != nil {
		t.Fatal(err)
	}
	mo := motif.MustPath(0, 1, 2)
	var got []string
	fullWalk(g, mo, 20)(func(m *match.Match) bool {
		got = append(got, fmt.Sprint(m.Nodes))
		return true
	})
	sort.Strings(got)
	want := []string{"[0 1 2]", "[0 1 3]"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("fused matches = %v, want %v", got, want)
	}
	// With a δ too small for the early chain only the late branch remains
	// temporally feasible... both chains span 2-5 units, so both survive a
	// tiny δ; with δ=1 neither does.
	got = nil
	fullWalk(g, mo, 1)(func(m *match.Match) bool {
		got = append(got, fmt.Sprint(m.Nodes))
		return true
	})
	if len(got) != 0 {
		t.Errorf("δ=1 fused matches = %v, want none", got)
	}
}

// TestFusedCounts double-checks end-to-end counts equal the slice-mode
// enumeration over all pure structural matches.
func TestFusedCounts(t *testing.T) {
	for seed := int64(30); seed < 40; seed++ {
		g := randomGraph(seed, 7, 80, 60)
		for _, mo := range []*motif.Motif{motif.MustPath(0, 1, 2), motif.MustPath(0, 1, 2, 0)} {
			p := Params{Delta: 15, Phi: 2}
			streamed, _, err := Count(g, mo, p)
			if err != nil {
				t.Fatal(err)
			}
			all := match.Collect(g, mo, 0)
			st, err := EnumerateMatches(g, mo, all, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if streamed != st.Instances {
				t.Errorf("seed=%d motif=%v: fused count %d != full-match count %d",
					seed, mo, streamed, st.Instances)
			}
		}
	}
}

// TestFusedEarlyStop ensures visitor aborts propagate through the fused
// walk promptly.
func TestFusedEarlyStop(t *testing.T) {
	g := randomGraph(3, 10, 200, 80)
	mo := motif.MustPath(0, 1, 2)
	calls := 0
	_, err := Enumerate(g, mo, Params{Delta: 40, Phi: 0}, func(in *Instance) bool {
		calls++
		return calls < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("visitor calls = %d, want 2", calls)
	}
}

// TestPropertyFusedNeverLoses is a randomized property test: for random
// deltas, counting through the fused source must match oracle-counted
// maximal instances.
func TestPropertyFusedNeverLoses(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng.Int63(), 5, 35, 30)
		mo := motif.MustPath(0, 1, 2, 0)
		delta := int64(1 + rng.Intn(40))
		phi := float64(rng.Intn(6))
		want := len(oracleEnumerate(g, mo, delta, phi))
		got, _, err := Count(g, mo, Params{Delta: delta, Phi: phi})
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(want) {
			t.Errorf("trial %d δ=%d φ=%v: fused count %d != oracle %d", trial, delta, phi, got, want)
		}
	}
}
