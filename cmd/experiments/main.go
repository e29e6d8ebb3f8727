// Command experiments reproduces every table and figure of the paper's
// evaluation section (§6) on the synthetic stand-in datasets, printing
// paper-style tables and optionally writing CSVs, plus two ablations of
// design choices beyond the paper (DESIGN.md §6).
//
// Usage:
//
//	experiments -scale small -exp all
//	experiments -scale medium -exp table3,fig8,fig14 -workers 8 -out results/
//	experiments -scale small -exp ablation-prune,ablation-workers
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"flowmotif/internal/core"
	"flowmotif/internal/harness"
	"flowmotif/internal/motif"
)

func main() {
	var (
		scale   = flag.String("scale", "small", "tiny | small | medium | large")
		exps    = flag.String("exp", "all", "comma list: table3,table4,fig8,fig9,fig10,fig11,fig12,fig13,fig14,ablation-prune,ablation-workers")
		workers = flag.Int("workers", 8, "parallel workers for sweep counting and significance")
		runs    = flag.Int("runs", 20, "randomized networks for fig14 (paper: 20)")
		seed    = flag.Int64("seed", 2019, "seed for fig14 permutations")
		outDir  = flag.String("out", "", "directory for CSV output (optional)")
	)
	flag.Parse()

	sc, err := harness.ParseScale(*scale)
	if err != nil {
		fatal(err.Error())
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	fmt.Printf("building datasets at scale %q...\n", sc)
	t0 := time.Now()
	datasets := harness.All(sc)
	motifs := harness.Motifs()
	fmt.Printf("datasets ready in %v\n\n", time.Since(t0).Round(time.Millisecond))

	emit := func(name string, t *harness.Table) {
		fmt.Println(t.String())
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err.Error())
			}
			f, err := os.Create(filepath.Join(*outDir, name+".csv"))
			if err != nil {
				fatal(err.Error())
			}
			if err := t.WriteCSV(f); err != nil {
				fatal(err.Error())
			}
			if err := f.Close(); err != nil {
				fatal(err.Error())
			}
		}
	}

	if sel("table3") {
		run("table3", func() { emit("table3", harness.Table3(datasets)) })
	}
	if sel("table4") {
		run("table4", func() { emit("table4", harness.Table4(datasets, motifs)) })
	}
	if sel("fig8") {
		run("fig8", func() { emit("fig8", harness.Fig8(datasets, motifs)) })
	}
	if sel("fig9") {
		run("fig9", func() {
			for _, ds := range datasets {
				ins, tim := harness.Fig9(ds, motifs, *workers)
				emit("fig9_instances_"+strings.ToLower(ds.Name), ins)
				emit("fig9_time_"+strings.ToLower(ds.Name), tim)
			}
		})
	}
	if sel("fig10") {
		run("fig10", func() {
			for _, ds := range datasets {
				ins, tim := harness.Fig10(ds, motifs, *workers)
				emit("fig10_instances_"+strings.ToLower(ds.Name), ins)
				emit("fig10_time_"+strings.ToLower(ds.Name), tim)
			}
		})
	}
	if sel("fig11") {
		run("fig11", func() {
			for _, ds := range datasets {
				emit("fig11_"+strings.ToLower(ds.Name),
					harness.Fig11(ds, motifs, []int{1, 5, 10, 50, 100, 500}))
			}
		})
	}
	if sel("fig12") {
		run("fig12", func() { emit("fig12", harness.Fig12(datasets, motifs)) })
	}
	if sel("fig13") {
		run("fig13", func() {
			for _, ds := range datasets {
				ins, tim := harness.Fig13(ds, motifs, *workers)
				emit("fig13_instances_"+strings.ToLower(ds.Name), ins)
				emit("fig13_time_"+strings.ToLower(ds.Name), tim)
			}
		})
	}
	if sel("fig14") {
		run("fig14", func() {
			for _, ds := range datasets {
				emit("fig14_"+strings.ToLower(ds.Name),
					harness.Fig14(ds, motifs, *runs, *seed, *workers))
			}
		})
	}

	// Ablations: M(4,3) counted on the Bitcoin dataset with one knob
	// varied per row; the instance column must not change.
	ablate := func(name, knob string, values []string, params func(i int) core.Params) {
		run(name, func() {
			ds, mo := datasets[0], motif.MustPath(0, 1, 2, 3).Named("M(4,3)")
			t := &harness.Table{Title: "Ablation: " + knob + " (" + mo.Name() + ", " + ds.Name + ")",
				Header: []string{knob, "instances", "ms"}}
			for i, v := range values {
				p := params(i)
				p.Delta, p.Phi = ds.Delta, ds.Phi
				t0 := time.Now()
				n, _, err := core.Count(ds.G, mo, p)
				if err != nil {
					fatal(err.Error())
				}
				t.AddRow(v, strconv.FormatInt(n, 10), fmt.Sprintf("%.1f", float64(time.Since(t0).Microseconds())/1e3))
			}
			emit(name, t)
		})
	}
	if sel("ablation-prune") {
		ablate("ablation-prune", "availability pruning", []string{"on", "off"},
			func(i int) core.Params { return core.Params{DisableAvailPrune: i == 1} })
	}
	if sel("ablation-workers") {
		ablate("ablation-workers", "workers", []string{"1", "2", "4", "8"},
			func(i int) core.Params { return core.Params{Workers: 1 << i} })
	}
}

func run(name string, f func()) {
	t0 := time.Now()
	f()
	fmt.Printf("[%s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "experiments:", msg)
	os.Exit(1)
}
