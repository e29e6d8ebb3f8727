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
	"sort"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/harness"
	"flowmotif/internal/join"
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/signif"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
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

// BenchmarkStreamIngest measures steady-state streaming ingestion
// (internal/stream, the flowmotifd hot path) in events per second: each
// iteration replays the whole dataset as one stream pass in 512-event
// batches, with timestamps shifted forward per pass so the engine keeps
// running against the same live window instead of restarting.
func BenchmarkStreamIngest(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		evs := ds.G.Events()
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
		minT, maxT := ds.G.TimeSpan()
		span := maxT - minT + ds.Delta + 1

		for _, cfg := range []struct {
			name string
			subs []stream.Subscription
		}{
			{"1sub", []stream.Subscription{
				{ID: "tri", Motif: fastMotifs[1], Delta: ds.Delta, Phi: ds.Phi},
			}},
			{"4sub", []stream.Subscription{
				{ID: "m32", Motif: fastMotifs[0], Delta: ds.Delta, Phi: ds.Phi},
				{ID: "m33", Motif: fastMotifs[1], Delta: ds.Delta, Phi: ds.Phi},
				{ID: "m43", Motif: fastMotifs[2], Delta: ds.Delta, Phi: ds.Phi},
				{ID: "m44a", Motif: fastMotifs[3], Delta: ds.Delta, Phi: ds.Phi},
			}},
		} {
			b.Run(ds.Name+"/"+cfg.name, func(b *testing.B) {
				var detections int64
				eng, err := stream.NewEngine(stream.Config{Subs: cfg.subs},
					stream.FuncSink(func(*stream.Detection) { detections++ }))
				if err != nil {
					b.Fatal(err)
				}
				batch := make([]temporal.Event, 0, 512)
				b.ResetTimer()
				for pass := 0; pass < b.N; pass++ {
					offset := int64(pass) * span
					for lo := 0; lo < len(evs); lo += 512 {
						hi := lo + 512
						if hi > len(evs) {
							hi = len(evs)
						}
						batch = batch[:0]
						for _, e := range evs[lo:hi] {
							e.T += offset
							batch = append(batch, e)
						}
						if _, err := eng.Ingest(batch); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				total := float64(b.N) * float64(len(evs))
				b.ReportMetric(total/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(detections)/float64(b.N), "detections/pass")
				b.ReportMetric(float64(eng.Stats().EventsRetained), "retained")
			})
		}
	}
}

// benchSubs builds n distinct benchmark subscriptions: all on one shape
// (shared — the triangle M(3,3)) or cycling through the ten-shape catalog
// (distinct), with φ varied so same-shape subscriptions remain distinct
// (δ, φ) consumers.
func benchSubs(n int, shared bool, delta int64, phi float64) []stream.Subscription {
	subs := make([]stream.Subscription, n)
	for i := range subs {
		mo := benchMotifs[1] // the triangle M(3,3)
		if !shared {
			mo = benchMotifs[i%len(benchMotifs)]
		}
		subs[i] = stream.Subscription{
			ID:    fmt.Sprintf("s%d", i),
			Motif: mo,
			Delta: delta,
			Phi:   phi + float64(i%4),
		}
	}
	return subs
}

// BenchmarkStreamIngestManySubs measures the shared-evaluation planner
// (DESIGN.md §11) across subscription counts: N subscriptions either all
// watching one motif shape under distinct φ (the planner's best case — one
// phase-P1 walk and one snapshot serve all N) or cycling through the
// ten-shape catalog. 1000-sub variants use a shorter stream to keep
// `-benchtime 1x` smoke runs bounded.
func BenchmarkStreamIngestManySubs(b *testing.B) {
	ds := harness.Bitcoin(benchScale)
	evs := ds.G.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	minT, maxT := ds.G.TimeSpan()
	span := maxT - minT + ds.Delta + 1

	for _, n := range []int{1, 10, 100, 1000} {
		events := evs
		if n >= 1000 && len(events) > len(evs)/5 {
			events = events[:len(evs)/5]
		}
		for _, mode := range []struct {
			name   string
			shared bool
		}{
			{"shared-shape", true},
			{"distinct-shapes", false},
		} {
			b.Run(fmt.Sprintf("subs=%d/%s", n, mode.name), func(b *testing.B) {
				eng, err := stream.NewEngine(stream.Config{
					Subs: benchSubs(n, mode.shared, ds.Delta, ds.Phi),
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
				batch := make([]temporal.Event, 0, 2048)
				b.ResetTimer()
				for pass := 0; pass < b.N; pass++ {
					offset := int64(pass) * span
					for lo := 0; lo < len(events); lo += 2048 {
						hi := lo + 2048
						if hi > len(events) {
							hi = len(events)
						}
						batch = batch[:0]
						for _, e := range events[lo:hi] {
							e.T += offset
							batch = append(batch, e)
						}
						if _, err := eng.Ingest(batch); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				st := eng.Stats()
				total := float64(b.N) * float64(len(events))
				b.ReportMetric(total/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(st.SnapshotReuse, "bands/snapshot")
				b.ReportMetric(float64(st.MatchesShared)/float64(b.N), "matches-shared/pass")
			})
		}
	}
}

// BenchmarkStoreAppend measures durable WAL ingestion (the flowmotifd
// -data-dir hot path) in events per second: each iteration appends the
// whole dataset in 512-event batches, timestamps shifted forward per pass
// so the store's time frontier keeps advancing. Segments roll at the
// default size; fsync is off (the serving default).
func BenchmarkStoreAppend(b *testing.B) {
	ds := harness.Bitcoin(benchScale)
	evs := ds.G.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	minT, maxT := ds.G.TimeSpan()
	span := maxT - minT + 1

	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batch := make([]temporal.Event, 0, 512)
	b.ResetTimer()
	for pass := 0; pass < b.N; pass++ {
		offset := int64(pass) * span
		for lo := 0; lo < len(evs); lo += 512 {
			hi := lo + 512
			if hi > len(evs) {
				hi = len(evs)
			}
			batch = batch[:0]
			for _, e := range evs[lo:hi] {
				e.T += offset
				batch = append(batch, e)
			}
			if err := st.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	total := float64(b.N) * float64(len(evs))
	b.ReportMetric(total/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkStoreReplay measures WAL recovery speed (the flowmotifd
// restart path) in events per second over a pre-populated store.
func BenchmarkStoreReplay(b *testing.B) {
	ds := harness.Bitcoin(benchScale)
	evs := ds.G.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	st, err := store.Open(b.TempDir(), store.Options{SegmentEvents: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(evs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := st.Replay(0, func(_ int64, _ temporal.Event) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != len(evs) {
			b.Fatalf("replayed %d events, want %d", n, len(evs))
		}
	}
	b.StopTimer()
	total := float64(b.N) * float64(len(evs))
	b.ReportMetric(total/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkGraphConstruction measures time-series graph building, the
// substrate cost underlying every experiment.
func BenchmarkGraphConstruction(b *testing.B) {
	for _, ds := range harness.All(benchScale) {
		evs := ds.G.Events()
		b.Run(ds.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewGraphWithNodes(ds.G.NumNodes(), evs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
