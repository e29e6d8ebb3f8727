// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) at the "small" dataset scale, plus ablations for the design choices
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers differ from the paper (different hardware, language and
// dataset scale); the shapes — who wins, monotonicity in δ/φ, growth with
// data size — are the reproduction target (see EXPERIMENTS.md).
package flowmotif

import (
	"fmt"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/harness"
	"flowmotif/internal/join"
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/signif"
)

const benchScale = harness.Small

// benchMotifs is the Figure-3 catalog used throughout the evaluation.
var benchMotifs = motif.Catalog()

// fastMotifs is a representative subset (chain/triangle/long chain) for the
// sweep-heavy figures, keeping the full `-bench=.` run in minutes.
var fastMotifs = []*motif.Motif{
	motif.MustPath(0, 1, 2).Named("M(3,2)"),
	motif.MustPath(0, 1, 2, 0).Named("M(3,3)"),
	motif.MustPath(0, 1, 2, 3).Named("M(4,3)"),
	motif.MustPath(0, 1, 2, 3, 0).Named("M(4,4)A"),
}

// BenchmarkTable3Stats regenerates Table 3 (dataset statistics).
func BenchmarkTable3Stats(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		b.Run(ds.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := ds.G.Stats()
				if st.Events == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkTable4PhaseP1 regenerates Table 4: structural-match counting
// (phase P1) per motif and dataset.
func BenchmarkTable4PhaseP1(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		for _, mo := range benchMotifs {
			b.Run(ds.Name+"/"+mo.Name(), func(b *testing.B) {
				var n int64
				for i := 0; i < b.N; i++ {
					n = match.Count(ds.G, mo)
				}
				b.ReportMetric(float64(n), "matches")
			})
		}
	}
}

// BenchmarkFig8TwoPhaseVsJoin regenerates Figure 8: the two-phase
// enumeration against the join baseline at default δ/φ.
func BenchmarkFig8TwoPhaseVsJoin(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		p := core.Params{Delta: ds.Delta, Phi: ds.Phi}
		for _, mo := range fastMotifs {
			b.Run(ds.Name+"/"+mo.Name()+"/two-phase", func(b *testing.B) {
				var n int64
				for i := 0; i < b.N; i++ {
					n, _, _ = core.Count(ds.G, mo, p)
				}
				b.ReportMetric(float64(n), "instances")
			})
			b.Run(ds.Name+"/"+mo.Name()+"/join", func(b *testing.B) {
				var n int64
				for i := 0; i < b.N; i++ {
					n, _, _ = join.Count(ds.G, mo, p, join.Options{})
				}
				b.ReportMetric(float64(n), "instances")
			})
		}
	}
}

// BenchmarkFig9DeltaSweep regenerates Figure 9: enumeration across the δ
// sweep at the default φ.
func BenchmarkFig9DeltaSweep(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		for _, delta := range ds.DeltaSweep {
			for _, mo := range fastMotifs {
				b.Run(fmt.Sprintf("%s/delta=%d/%s", ds.Name, delta, mo.Name()), func(b *testing.B) {
					var n int64
					for i := 0; i < b.N; i++ {
						n, _, _ = core.Count(ds.G, mo, core.Params{Delta: delta, Phi: ds.Phi})
					}
					b.ReportMetric(float64(n), "instances")
				})
			}
		}
	}
}

// BenchmarkFig10PhiSweep regenerates Figure 10: enumeration across the φ
// sweep at the default δ.
func BenchmarkFig10PhiSweep(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		for _, phi := range ds.PhiSweep {
			for _, mo := range fastMotifs {
				b.Run(fmt.Sprintf("%s/phi=%g/%s", ds.Name, phi, mo.Name()), func(b *testing.B) {
					var n int64
					for i := 0; i < b.N; i++ {
						n, _, _ = core.Count(ds.G, mo, core.Params{Delta: ds.Delta, Phi: phi})
					}
					b.ReportMetric(float64(n), "instances")
				})
			}
		}
	}
}

// BenchmarkFig11TopK regenerates Figure 11: top-k search (k up to 500) at
// the default δ with φ replaced by the floating threshold.
func BenchmarkFig11TopK(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		for _, k := range []int{1, 10, 100, 500} {
			mo := fastMotifs[0]
			b.Run(fmt.Sprintf("%s/k=%d/%s", ds.Name, k, mo.Name()), func(b *testing.B) {
				var kth float64
				for i := 0; i < b.N; i++ {
					res, _, err := core.TopK(ds.G, mo, ds.Delta, k, 1)
					if err != nil {
						b.Fatal(err)
					}
					if len(res) > 0 {
						kth = res[len(res)-1].Flow
					}
				}
				b.ReportMetric(kth, "kth-flow")
			})
		}
	}
}

// BenchmarkFig12TopOne regenerates Figure 12: top-1 via the enumeration
// with a floating threshold versus the DP module (faithful and optimized).
func BenchmarkFig12TopOne(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		for _, mo := range fastMotifs {
			b.Run(ds.Name+"/"+mo.Name()+"/topk1", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.TopK(ds.G, mo, ds.Delta, 1, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(ds.Name+"/"+mo.Name()+"/dp", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.TopOneDP(ds.G, mo, ds.Delta); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(ds.Name+"/"+mo.Name()+"/dp-fast", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.TopOneDPFast(ds.G, mo, ds.Delta); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig13Scalability regenerates Figure 13: enumeration over growing
// time-prefix samples of each dataset.
func BenchmarkFig13Scalability(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		for _, pf := range ds.Prefixes {
			g := ds.PrefixGraph(pf)
			mo := fastMotifs[0]
			b.Run(fmt.Sprintf("%s/%s/%s", ds.Name, pf.Label, mo.Name()), func(b *testing.B) {
				var n int64
				for i := 0; i < b.N; i++ {
					n, _, _ = core.Count(g, mo, core.Params{Delta: ds.Delta, Phi: ds.Phi})
				}
				b.ReportMetric(float64(n), "instances")
			})
		}
	}
}

// BenchmarkFig14Significance regenerates Figure 14: significance against
// flow-permuted networks (fewer runs than the paper's 20 to keep the bench
// bounded; cmd/experiments uses the full 20).
func BenchmarkFig14Significance(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		mo := fastMotifs[1] // the triangle: the paper's cyclic-flow headline
		b.Run(ds.Name+"/"+mo.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := signif.Evaluate(ds.G, mo, core.Params{Delta: ds.Delta, Phi: ds.Phi},
					signif.Config{Runs: 5, Seed: 7, Workers: 5})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ZScore, "z-score")
			}
		})
	}
}

// BenchmarkAblationAvailPrune measures the flow-availability pruning (an
// optimization beyond the paper's Algorithm 1); results are identical with
// it disabled.
func BenchmarkAblationAvailPrune(b *testing.B) {
	ds := harness.Bitcoin(benchScale)
	mo := fastMotifs[2] // M(4,3)
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := core.Params{Delta: ds.Delta, Phi: ds.Phi, DisableAvailPrune: disabled}
				if _, _, err := core.Count(ds.G, mo, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWorkers measures the parallel speedup of the enumeration
// over structural matches.
func BenchmarkAblationWorkers(b *testing.B) {
	ds := harness.Bitcoin(benchScale)
	mo := fastMotifs[2]
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := core.Params{Delta: ds.Delta, Phi: ds.Phi, Workers: w}
				if _, _, err := core.Count(ds.G, mo, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
